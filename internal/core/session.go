package core

import (
	"context"
	"slices"
	"sort"

	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// mDiagnoses counts the rows DiagnoseRows diagnoses; its timed stages are
// declared in the one stage table, tracing.Stages.
var mDiagnoses = telemetry.Default().Counter("core.diagnose.calls")

// Session is one goroutine's inference context over one model or over a
// whole bundle: inference views (nn.Network.ViewIn — their own per-pass
// layer caches over the models' weight matrices, which a pass only reads)
// of each distinct trunk and of every head, one workspace that every one
// of those views draws its activations and gradients from, and one set of
// reusable bookkeeping buffers. The weights, normalizers, forests and
// layouts are read-only and shared with the models and with every other
// session of them, so a session costs its caches and the memory of its
// largest pass, not a copy of anything. A Session itself must not be used
// concurrently; the serving engine keeps one per worker, and Model's own
// methods take one from a per-model pool.
type Session struct {
	// heads holds one entry per model, the models of one trunk next to each
	// other; heads[0] is the session's first model (a bundle's general).
	heads  []head
	trunks []trunk
	// byService maps a service to its head. A service without an entry —
	// every service, in a one-model session — is served by heads[0].
	byService map[int]int
	// net is the complete inference view of heads[0]'s network.
	net *nn.Network

	// ws is the memory of the pass in flight (DESIGN.md §8, "Pass memory"):
	// every entry point that runs a view resets it first, and nothing it
	// hands out is reachable from what the entry point returns.
	ws     nn.Workspace
	sc     scratch
	passes []int
}

// head is one model's own layers, above the trunk it aliases.
type head struct {
	m       *Model
	service int // the service the session diagnoses with m
	top     *nn.Network
	trunk   int        // index into Session.trunks
	in      mat.Matrix // the head's rows of the trunk's activations, during a pass
}

// trunk is one shared feature extractor (trunk.go). LandPooling is the only
// layer that sees how many landmarks a row carries, so a pass runs it once
// per input width, each on its own view (a layer's caches belong to one
// forward/backward pair); everything above it runs once over all rows.
type trunk struct {
	params []*nn.Param // what makes two trunks one: sameTrunk
	pools  []nn.Layer  // LandPool views, one per width group of a pass
	rest   []nn.Layer  // the first Dense and what follows it, up to the heads
}

// Row is one sample of a DiagnoseRows pass.
type Row struct {
	// Service selects the model: the bundle's specialized model for it, or
	// the general model (in a one-model session, that model).
	Service int
	// Layout is the probed landmark layout of Features.
	Layout   probe.Layout
	Features []float64
}

// NewSession returns a fresh inference session sharing the model's
// weights. The model must not be trained in place afterwards (Specialize
// and Retrain fit copies).
func (m *Model) NewSession() *Session { return newSession([]*Model{m}, []int{m.ServiceID}) }

// NewSession returns a fresh inference session over every model of the
// bundle: Row.Service picks the head, and rows of models that share a trunk
// share its pass. The bundle's model set must not change afterwards (the
// serving registry builds a new bundle and new sessions instead).
func (b *Bundle) NewSession() *Session {
	models, services := []*Model{b.General}, []int{-1}
	for id := range b.Specialized {
		services = append(services, id)
	}
	sort.Ints(services[1:])
	for _, id := range services[1:] {
		models = append(models, b.Specialized[id])
	}
	return newSession(models, services)
}

// newSession builds a session whose heads[0] is models[0]; services[i] is
// the service models[i] is diagnosed for.
func newSession(models []*Model, services []int) *Session {
	s := &Session{heads: make([]head, 0, len(models))}
	for i, m := range models {
		net := m.Net.ViewIn(&s.ws)
		k, params := trunkLayers(net), trunkParams(net)
		ti := 0
		for ti < len(s.trunks) && !sameTrunk(s.trunks[ti].params, params) {
			ti++
		}
		if ti == len(s.trunks) {
			s.trunks = append(s.trunks, trunk{params: params, pools: []nn.Layer{net.Layers[0]}, rest: net.Layers[1:k]})
		}
		if i == 0 {
			s.net = net
		}
		// Trunks are numbered in order of first appearance, so inserting
		// behind the last head of the same trunk keeps models[0] first and
		// every trunk's heads one contiguous run.
		at := len(s.heads)
		for at > 0 && s.heads[at-1].trunk > ti {
			at--
		}
		s.heads = slices.Insert(s.heads, at, head{m: m, service: services[i], top: net.Sub(k, len(net.Layers)), trunk: ti})
	}
	if len(s.heads) > 1 {
		s.byService = make(map[int]int, len(s.heads)-1)
	}
	for i := 1; i < len(s.heads); i++ {
		s.byService[s.heads[i].service] = i
	}
	return s
}

// acquire takes a session from the model's pool, building one when the
// pool is empty. Callers return it with m.sessions.Put.
func (m *Model) acquire() *Session {
	if s, ok := m.sessions.Get().(*Session); ok {
		return s
	}
	return m.NewSession()
}

// Model returns the session's first model: the one a model session was
// built for, a bundle session's general model.
func (s *Session) Model() *Model { return s.heads[0].m }

// ModelFor returns the read-only model this session diagnoses a service
// with, and the service that model is specialized for in the session: the
// given one, or -1 when it falls back to the first (general) model.
func (s *Session) ModelFor(serviceID int) (m *Model, served int) {
	if h, ok := s.byService[serviceID]; ok {
		return s.heads[h].m, serviceID
	}
	return s.heads[0].m, -1
}

// Network returns the session's inference view of its first model's
// network: its Params alias the model's weight matrices.
func (s *Session) Network() *nn.Network { return s.net }

// Passes returns how many rows each trunk pass of the latest DiagnoseRows
// call fused (one entry, the batch size, unless the batch mixed models
// that do not share a trunk). Valid until the session's next call.
func (s *Session) Passes() []int { return s.passes }

// Diagnose is a one-row DiagnoseBatch, safe to call concurrently with
// other sessions of the same model.
func (s *Session) Diagnose(features []float64, layout probe.Layout) *Diagnosis {
	return s.DiagnoseBatch([][]float64{features}, layout)[0]
}

// DiagnoseBatch diagnoses b samples that share one layout with the
// session's first model: a DiagnoseRows pass whose rows form a single
// group. Results are in input order.
func (s *Session) DiagnoseBatch(features [][]float64, layout probe.Layout) []*Diagnosis {
	return s.diagnoseBatch(context.Background(), features, layout)
}

func (s *Session) diagnoseBatch(ctx context.Context, features [][]float64, layout probe.Layout) []*Diagnosis {
	rows := s.sc.rows[:0]
	for _, f := range features {
		rows = append(rows, Row{Service: s.heads[0].m.ServiceID, Layout: layout, Features: f})
	}
	s.sc.rows = rows
	return s.DiagnoseRows(ctx, rows)
}

// DiagnoseRows diagnoses a batch of samples that may each name their own
// service and layout, with one fused forward/backward pass per trunk: the
// rows are normalized and run through LandPooling per input width, the
// pooled rows of all widths go through the rest of the trunk as one matrix,
// each head consumes its own rows of the result and backpropagates its
// rows' ideal-label losses (§III-E) into one gradient matrix, and that goes
// back down the trunk the same way. The weight matrices are streamed from
// memory once per micro-batch instead of once per sample or per service,
// which is where the serving engine's batching throughput comes from — and
// because no layer mixes rows, every Diagnosis is bit-identical to what a
// one-row pass on its model gives. A batch with a single width and a
// single head is passed as it stands, with no gather or scatter copy.
// Results are in input order and each Diagnosis is freshly allocated: the
// pass's matrices live in the session's workspace, and what a Diagnosis
// keeps is copied out of it.
//
// The call is timed as the stage core.session_diagnose, and each trunk pass
// marks its probe.normalize, nn.input_gradient and forest.scores laps
// (tracing.Stages). When ctx holds an active trace span (the serving engine
// passes the micro-batch's span) the call is a child span of it, its laps
// are that span's children when the trace is sampled, and the total's
// histogram captures the trace ID as its tail exemplar.
func (s *Session) DiagnoseRows(ctx context.Context, rows []Row) []*Diagnosis {
	b := len(rows)
	if b == 0 {
		return nil
	}
	// Order the rows head by head with a counting sort: ends[h] is where
	// head h's run of `order` ends. Heads are stored trunk by trunk, so the
	// rows of one trunk are a contiguous run as well.
	sc := &s.sc
	sc.headOf, sc.order = grow(sc.headOf, b), grow(sc.order, b)
	sc.ends = grow(sc.ends, len(s.heads))
	clear(sc.ends)
	for i := range rows {
		if len(rows[i].Features) != rows[i].Layout.NumFeatures() {
			panic("core: feature vector does not match layout")
		}
		h := s.byService[rows[i].Service]
		sc.headOf[i] = h
		sc.ends[h]++
	}
	sum := 0
	for h, n := range sc.ends {
		sc.ends[h] = sum
		sum += n
	}
	for i, h := range sc.headOf {
		sc.order[sc.ends[h]] = i
		sc.ends[h]++
	}

	mDiagnoses.Add(int64(b))
	clock := tracing.SessionStage.Start(ctx)
	out := make([]*Diagnosis, b)
	s.passes = s.passes[:0]
	lo := 0
	for h0 := 0; h0 < len(s.heads); {
		h1 := h0 + 1
		for h1 < len(s.heads) && s.heads[h1].trunk == s.heads[h0].trunk {
			h1++
		}
		if hi := sc.ends[h1-1]; hi > lo {
			s.pass(h0, h1, lo, hi, rows, out, &clock)
			s.passes = append(s.passes, hi-lo)
			lo = hi
		}
		h0 = h1
	}
	clock.End()
	return out
}

// pass runs heads[h0:h1] — the heads of one trunk — over their rows,
// order[lo:hi], and writes each row's Diagnosis to its slot of out. Row
// positions below are relative to lo. Each of its three stages is one lap
// of clock, whatever the number of rows.
func (s *Session) pass(h0, h1, lo, hi int, rows []Row, out []*Diagnosis, clock *tracing.Clock) {
	s.ws.Reset()
	sc := &s.sc
	t := &s.trunks[s.heads[h0].trunk]
	order := sc.order[lo:hi]
	n := len(order)

	// Width groups, and every row normalized by its own model into its
	// group's input matrix.
	ng := 0
	for p, r := range order {
		w := len(rows[r].Features)
		g := 0
		for g < ng && sc.groups[g].width != w {
			g++
		}
		if g == ng {
			if ng++; g == len(sc.groups) {
				sc.groups = append(sc.groups, widthGroup{})
			}
			sc.groups[g].width, sc.groups[g].pos = w, sc.groups[g].pos[:0]
		}
		sc.groups[g].pos = append(sc.groups[g].pos, p)
	}
	groups := sc.groups[:ng]
	for len(t.pools) < len(groups) {
		t.pools = append(t.pools, nn.NewNetwork(t.pools[0]).ViewIn(&s.ws).Layers[0])
	}
	for gi := range groups {
		g := &groups[gi]
		g.x = s.ws.Matrix(len(g.pos), g.width)
		for i, p := range g.pos {
			row := &rows[order[p]]
			s.heads[sc.headOf[order[p]]].m.Norm.ApplyInto(row.Features, row.Layout, g.x.Row(i))
		}
	}
	clock.Mark(tracing.NormalizeStage)

	// Up the trunk: LandPooling per width group, the pooled rows scattered
	// to their positions, then one matrix through the rest.
	var act *mat.Matrix
	for gi := range groups {
		g := &groups[gi]
		pooled := t.pools[gi].Forward(g.x)
		if len(groups) == 1 {
			act = pooled
			break
		}
		if act == nil {
			act = s.ws.Matrix(n, pooled.Cols)
		}
		for i, p := range g.pos {
			copy(act.Row(p), pooled.Row(i))
		}
	}
	for _, l := range t.rest {
		act = l.Forward(act)
	}

	// Steps ①–④ per head on its rows of the trunk's activations, then step
	// ⑤ — one backpropagation of the per-sample ideal-label losses
	// (§III-E) — down to those activations. Rows are independent, so every
	// row of the gradient is what a one-row pass would give.
	sc.probs, sc.grads = grow(sc.probs, n), grow(sc.grads, n)
	var grad *mat.Matrix
	for h, a := h0, 0; h < h1; h++ {
		z := sc.ends[h] - lo
		if z == a {
			continue
		}
		hd := &s.heads[h]
		in := act
		if z-a < n {
			hd.in = mat.Matrix{Rows: z - a, Cols: act.Cols, Data: act.Data[a*act.Cols : z*act.Cols]}
			in = &hd.in
		}
		g, probs := hd.top.InputGradientBatch(in, nil) // per-row arg-max ideal labels
		for i := a; i < z; i++ {
			sc.probs[i] = probs.Row(i - a)
		}
		if z-a == n {
			grad = g
			break
		}
		if grad == nil {
			grad = s.ws.Matrix(n, act.Cols)
		}
		copy(grad.Data[a*act.Cols:z*act.Cols], g.Data)
		a = z
	}

	// Down the trunk, mirrored.
	for i := len(t.rest) - 1; i >= 0; i-- {
		grad = t.rest[i].Backward(grad)
	}
	for gi := range groups {
		g := &groups[gi]
		dpooled := grad
		if len(groups) > 1 {
			dpooled = s.ws.Matrix(len(g.pos), grad.Cols)
			for i, p := range g.pos {
				copy(dpooled.Row(i), grad.Row(p))
			}
		}
		dx := t.pools[gi].Backward(dpooled)
		for i, p := range g.pos {
			sc.grads[p] = dx.Row(i)
		}
	}

	clock.Mark(tracing.InputGradientStage)

	// What leaves the pass is copied out of the workspace: every row's
	// forest scores, then its attention and the ensemble of the two.
	for p, r := range order {
		row := &rows[r]
		out[r] = s.heads[sc.headOf[r]].m.newDiagnosis(sc.probs[p], row.Features, row.Layout, sc)
	}
	clock.Mark(tracing.ForestStage)
	for p, r := range order {
		s.heads[sc.headOf[r]].m.attend(out[r], sc.grads[p])
	}
}
