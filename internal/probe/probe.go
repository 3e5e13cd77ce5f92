// Package probe defines DiagNet's feature space and measurement plane over
// the simulated world: the per-landmark metrics (k = 5), the local client
// features, the m = ℓ·k + 5 feature-vector layout, the mapping between
// features, fault families and root causes (§III-A: "the space of possible
// root causes of an incident is precisely that of the features we
// collect"), and the per-metric normalization that lets one model consume
// measurements from landmarks never seen during training.
package probe

import (
	"fmt"
	"math"
	"math/rand"

	"diagnet/internal/netsim"
	"diagnet/internal/stats"
)

// Metric enumerates the k = 5 metrics collected per landmark.
type Metric int

const (
	// MetricRTT is the round-trip time (ms), measured over an upgraded
	// WebSocket connection in the paper's prototype.
	MetricRTT Metric = iota
	// MetricJitter is the RTT variation (ms).
	MetricJitter
	// MetricLoss is the retransmitted/reordered packet ratio extracted
	// from TCP statistics, a loss proxy.
	MetricLoss
	// MetricDownBW is the download throughput (Mbit/s) of a large GET.
	MetricDownBW
	// MetricUpBW is the upload throughput (Mbit/s) of a large POST.
	MetricUpBW
	NumMetrics
)

var metricNames = [NumMetrics]string{"rtt", "jitter", "loss", "down", "up"}

// String returns the metric's short name.
func (m Metric) String() string {
	if m < 0 || m >= NumMetrics {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// Local feature indices (the trailing block of every feature vector).
const (
	LocalGatewayRTT = iota
	LocalGatewayJitter
	LocalCPU
	LocalMem
	LocalIO
	NumLocal
)

var localFeatureNames = [NumLocal]string{"local.gw-rtt", "local.gw-jitter", "local.cpu", "local.mem", "local.io"}

// Family enumerates the c = 7 coarse fault families (§III-B).
type Family int

const (
	FamNominal Family = iota
	FamUplink
	FamLatency
	FamJitter
	FamLoss
	FamBandwidth
	FamLoad
	NumFamilies
)

var familyNames = [NumFamilies]string{
	"nominal", "uplink", "latency", "jitter", "loss", "bandwidth", "load",
}

// String returns the family name.
func (f Family) String() string {
	if f < 0 || f >= NumFamilies {
		return fmt.Sprintf("Family(%d)", int(f))
	}
	return familyNames[f]
}

// metricFamily maps landmark metrics to coarse families.
var metricFamily = [NumMetrics]Family{
	MetricRTT:    FamLatency,
	MetricJitter: FamJitter,
	MetricLoss:   FamLoss,
	MetricDownBW: FamBandwidth,
	MetricUpBW:   FamBandwidth,
}

// localFamily maps local features to coarse families.
var localFamily = [NumLocal]Family{
	LocalGatewayRTT:    FamUplink,
	LocalGatewayJitter: FamUplink,
	LocalCPU:           FamLoad,
	LocalMem:           FamLoad,
	LocalIO:            FamLoad,
}

// FamilyOfFault maps an injected fault kind to the coarse family a correct
// diagnosis must predict.
func FamilyOfFault(k netsim.FaultKind) Family {
	switch k {
	case netsim.FaultRate:
		return FamBandwidth
	case netsim.FaultServiceDelay:
		return FamLatency
	case netsim.FaultGatewayDelay:
		return FamUplink
	case netsim.FaultJitter:
		return FamJitter
	case netsim.FaultLoss:
		return FamLoss
	case netsim.FaultCPUStress:
		return FamLoad
	default:
		panic("probe: unknown fault kind")
	}
}

// Layout describes one feature-vector arrangement: which landmark regions
// occupy which positions, followed by the NumLocal local features. The
// paper's full deployment is NewLayout over all ten regions (m = 55).
type Layout struct {
	Landmarks []int // region index of each landmark position
}

// NewLayout builds a layout over the given landmark regions.
func NewLayout(landmarks []int) Layout {
	return Layout{Landmarks: append([]int(nil), landmarks...)}
}

// FullLayout returns the layout over every region of the default world.
func FullLayout() Layout {
	lms := make([]int, netsim.NumRegions)
	for i := range lms {
		lms[i] = i
	}
	return NewLayout(lms)
}

// NumFeatures returns m = ℓ·k + NumLocal.
func (l Layout) NumFeatures() int { return len(l.Landmarks)*int(NumMetrics) + NumLocal }

// NumLandmarks returns ℓ.
func (l Layout) NumLandmarks() int { return len(l.Landmarks) }

// FeatureIndex returns the feature position of (landmark position, metric).
func (l Layout) FeatureIndex(lmPos int, m Metric) int {
	return lmPos*int(NumMetrics) + int(m)
}

// LocalIndex returns the feature position of local feature li.
func (l Layout) LocalIndex(li int) int {
	return len(l.Landmarks)*int(NumMetrics) + li
}

// IsLocal reports whether feature i is a local feature.
func (l Layout) IsLocal(i int) bool { return i >= len(l.Landmarks)*int(NumMetrics) }

// FamilyOf returns the coarse family of feature i.
func (l Layout) FamilyOf(i int) Family {
	if l.IsLocal(i) {
		return localFamily[i-len(l.Landmarks)*int(NumMetrics)]
	}
	return metricFamily[i%int(NumMetrics)]
}

// Families returns the family of every feature, in order.
func (l Layout) Families() []Family {
	fams := make([]Family, l.NumFeatures())
	for i := range fams {
		fams[i] = l.FamilyOf(i)
	}
	return fams
}

// Validate checks that this layout can be diagnosed against a model whose
// deployment-wide layout is full: every landmark region must have a
// position in full (the ensemble re-indexes scores through it, so an
// unknown region is not merely unhelpful — it is unrepresentable), and no
// region may appear twice (duplicate positions would silently split one
// root cause's score mass).
func (l Layout) Validate(full Layout) error {
	if len(l.Landmarks) == 0 {
		return fmt.Errorf("probe: layout has no landmarks")
	}
	seen := make(map[int]bool, len(l.Landmarks))
	for _, region := range l.Landmarks {
		if full.LandmarkPos(region) < 0 {
			return fmt.Errorf("probe: landmark region %d not in the deployment layout", region)
		}
		if seen[region] {
			return fmt.Errorf("probe: landmark region %d listed twice", region)
		}
		seen[region] = true
	}
	return nil
}

// LandmarkPos returns the position of a region's landmark in this layout,
// or -1 when the region has no landmark here.
func (l Layout) LandmarkPos(region int) int {
	for pos, r := range l.Landmarks {
		if r == region {
			return pos
		}
	}
	return -1
}

// landmarkFeatureNames holds "<region>.<metric>" per region, built once: a
// reply names every cause it returns, so FeatureName is on the serving path
// and must not allocate.
var landmarkFeatureNames = func() [][NumMetrics]string {
	regions := netsim.DefaultRegions()
	names := make([][NumMetrics]string, len(regions))
	for r, region := range regions {
		for m, metric := range metricNames {
			names[r][m] = region.Name + "." + metric
		}
	}
	return names
}()

// FeatureName renders a feature for reports, e.g. "GRAV.rtt" or "local.cpu".
func (l Layout) FeatureName(i int) string {
	if l.IsLocal(i) {
		return localFeatureNames[i-len(l.Landmarks)*int(NumMetrics)]
	}
	return landmarkFeatureNames[l.Landmarks[i/int(NumMetrics)]][i%int(NumMetrics)]
}

// CauseOf returns the root-cause feature index a correct diagnosis of the
// fault must rank first, under this layout. Server-side faults map to the
// (landmark of the fault region, metric of the fault family); client-side
// faults map to the corresponding local feature. ok is false when the
// fault's region has no landmark in this layout (the cause is not
// representable).
func (l Layout) CauseOf(f netsim.Fault) (cause int, ok bool) {
	switch f.Kind {
	case netsim.FaultGatewayDelay:
		return l.LocalIndex(LocalGatewayRTT), true
	case netsim.FaultCPUStress:
		return l.LocalIndex(LocalCPU), true
	}
	pos := l.LandmarkPos(f.Region)
	if pos < 0 {
		return -1, false
	}
	switch f.Kind {
	case netsim.FaultRate:
		return l.FeatureIndex(pos, MetricDownBW), true
	case netsim.FaultServiceDelay:
		return l.FeatureIndex(pos, MetricRTT), true
	case netsim.FaultJitter:
		return l.FeatureIndex(pos, MetricJitter), true
	case netsim.FaultLoss:
		return l.FeatureIndex(pos, MetricLoss), true
	default:
		panic("probe: unknown fault kind")
	}
}

// Project extracts from a full-layout feature vector the features of the
// sub-layout (whose landmark regions must all appear in l).
func (l Layout) Project(features []float64, sub Layout) []float64 {
	out := make([]float64, sub.NumFeatures())
	for pos, region := range sub.Landmarks {
		fullPos := l.LandmarkPos(region)
		if fullPos < 0 {
			panic(fmt.Sprintf("probe: region %d not in source layout", region))
		}
		copy(out[pos*int(NumMetrics):(pos+1)*int(NumMetrics)],
			features[fullPos*int(NumMetrics):(fullPos+1)*int(NumMetrics)])
	}
	copy(out[len(sub.Landmarks)*int(NumMetrics):], features[len(l.Landmarks)*int(NumMetrics):])
	return out
}

// ZeroMask returns a copy of features with the metrics of landmarks absent
// from `known` zeroed — the extensible random forest's missing-value policy
// (§IV-B-a).
func (l Layout) ZeroMask(features []float64, known map[int]bool) []float64 {
	out := append([]float64(nil), features...)
	for pos, region := range l.Landmarks {
		if !known[region] {
			for m := 0; m < int(NumMetrics); m++ {
				out[l.FeatureIndex(pos, Metric(m))] = 0
			}
		}
	}
	return out
}

// KnownFeatureMask returns, per feature, whether it carries real
// measurements given the set of known landmark regions. Local features are
// always known.
func (l Layout) KnownFeatureMask(known map[int]bool) []bool {
	mask := make([]bool, l.NumFeatures())
	for i := range mask {
		if l.IsLocal(i) {
			mask[i] = true
		} else {
			mask[i] = known[l.Landmarks[i/int(NumMetrics)]]
		}
	}
	return mask
}

// Prober collects one client's measurement vector from the simulator, the
// stand-in for the browser-side HTTPS/WebSocket probing of the paper's
// prototype (§IV-A-b).
type Prober struct {
	W *netsim.World
}

// Sample measures all landmarks of the layout plus local features for a
// client under env. rng injects measurement noise (nil = expectations).
func (p Prober) Sample(client int, layout Layout, env netsim.Env, rng *rand.Rand) []float64 {
	x := make([]float64, layout.NumFeatures())
	for pos, region := range layout.Landmarks {
		path := p.W.PathConditions(client, region, env, rng)
		x[layout.FeatureIndex(pos, MetricRTT)] = path.RTTMs
		x[layout.FeatureIndex(pos, MetricJitter)] = path.JitterMs
		x[layout.FeatureIndex(pos, MetricLoss)] = path.Loss
		x[layout.FeatureIndex(pos, MetricDownBW)] = path.DownMbps
		x[layout.FeatureIndex(pos, MetricUpBW)] = path.UpMbps
	}
	local := p.W.ClientConditions(client, env, rng)
	x[layout.LocalIndex(LocalGatewayRTT)] = local.GatewayRTTMs
	x[layout.LocalIndex(LocalGatewayJitter)] = local.GatewayJitterMs
	x[layout.LocalIndex(LocalCPU)] = local.CPULoad
	x[layout.LocalIndex(LocalMem)] = local.MemLoad
	x[layout.LocalIndex(LocalIO)] = local.IOLoad
	return x
}

// Normalizer standardizes features per *metric kind* rather than per
// feature position: all landmarks share one scale per metric, so the same
// trained model can normalize measurements from landmarks that joined
// after training — a requirement of root-cause extensibility.
//
// Long-tailed positive metrics (latencies, jitter, throughputs) are
// standardized in log1p domain: a +50 ms fault on a nearby 20 ms path is a
// large *relative* change even though it is small against the global RTT
// spread, and the QoE-degrading latency faults are precisely the nearby
// ones. Bounded ratios (loss, loads) stay linear.
type Normalizer struct {
	MetricMean [NumMetrics]float64
	MetricStd  [NumMetrics]float64
	LocalMean  [NumLocal]float64
	LocalStd   [NumLocal]float64
	// MetricLog / LocalLog record which features were standardized in
	// log1p domain, so a persisted model replays exactly the transform it
	// was fitted with.
	MetricLog [NumMetrics]bool
	LocalLog  [NumLocal]bool
}

// defaultMetricLog marks landmark metrics standardized in log1p domain.
var defaultMetricLog = [NumMetrics]bool{
	MetricRTT:    true,
	MetricJitter: true,
	MetricLoss:   false,
	MetricDownBW: true,
	MetricUpBW:   true,
}

// defaultLocalLog marks local features standardized in log1p domain.
var defaultLocalLog = [NumLocal]bool{
	LocalGatewayRTT:    true,
	LocalGatewayJitter: true,
}

func (n *Normalizer) metricValue(m int, v float64) float64 {
	if n.MetricLog[m] {
		return math.Log1p(math.Max(v, 0))
	}
	return v
}

func (n *Normalizer) localValue(li int, v float64) float64 {
	if n.LocalLog[li] {
		return math.Log1p(math.Max(v, 0))
	}
	return v
}

// FitNormalizer estimates the scales from raw samples under a layout,
// using the default log-domain transform set.
func FitNormalizer(samples [][]float64, layout Layout) *Normalizer {
	n := &Normalizer{MetricLog: defaultMetricLog, LocalLog: defaultLocalLog}
	var metric [NumMetrics]stats.Online
	var local [NumLocal]stats.Online
	for _, x := range samples {
		for pos := range layout.Landmarks {
			for m := 0; m < int(NumMetrics); m++ {
				metric[m].Add(n.metricValue(m, x[layout.FeatureIndex(pos, Metric(m))]))
			}
		}
		for li := 0; li < NumLocal; li++ {
			local[li].Add(n.localValue(li, x[layout.LocalIndex(li)]))
		}
	}
	for m := 0; m < int(NumMetrics); m++ {
		n.MetricMean[m] = metric[m].Mean()
		n.MetricStd[m] = nonZero(metric[m].StdDev())
	}
	for li := 0; li < NumLocal; li++ {
		n.LocalMean[li] = local[li].Mean()
		n.LocalStd[li] = nonZero(local[li].StdDev())
	}
	return n
}

func nonZero(s float64) float64 {
	if s <= 1e-12 {
		return 1
	}
	return s
}

// Apply standardizes a raw feature vector under the given layout,
// returning a new slice.
func (n *Normalizer) Apply(x []float64, layout Layout) []float64 {
	return n.ApplyInto(x, layout, make([]float64, len(x)))
}

// ApplyInto is Apply writing into a caller-provided buffer (which must
// have len(x) elements), so per-request serving paths can reuse scratch
// space instead of allocating. It returns out.
func (n *Normalizer) ApplyInto(x []float64, layout Layout, out []float64) []float64 {
	for pos := range layout.Landmarks {
		for m := 0; m < int(NumMetrics); m++ {
			i := layout.FeatureIndex(pos, Metric(m))
			out[i] = (n.metricValue(m, x[i]) - n.MetricMean[m]) / n.MetricStd[m]
		}
	}
	for li := 0; li < NumLocal; li++ {
		i := layout.LocalIndex(li)
		out[i] = (n.localValue(li, x[i]) - n.LocalMean[li]) / n.LocalStd[li]
	}
	return out
}
