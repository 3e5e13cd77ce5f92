package core

import (
	"fmt"
	"sort"

	"diagnet/internal/forest"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// sortedKnown lists the known regions in ascending order, so that saving a
// bundle twice gives the same bytes (map iteration order would not);
// decoding does not care about the order.
func sortedKnown(known map[int]bool) []int {
	var out []int
	for r := range known {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// assemble builds a decoded model, after checking what the rest of the
// package takes for granted of it: the network starts with a LandPool over
// the probe's metrics and local features and ends with a Dense layer over
// the fault families (which puts a Dense above the LandPool, so trunkLayers
// has a trunk to find), and the forest scores every feature of the full
// layout and splits on none beyond it.
func assemble(cfg Config, train, full, known []int, norm probe.Normalizer, net *nn.Network, aux *forest.Extensible, serviceID int) (*Model, error) {
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("core: load: empty network")
	}
	if lp, ok := net.Layers[0].(*nn.LandPool); !ok || lp.K != int(probe.NumMetrics) || lp.NumLocal != probe.NumLocal {
		return nil, fmt.Errorf("core: load: the network does not start with a LandPool over %d metrics and %d local features", probe.NumMetrics, probe.NumLocal)
	}
	if d, ok := net.Layers[len(net.Layers)-1].(*nn.Dense); !ok || d.Out != int(probe.NumFamilies) {
		return nil, fmt.Errorf("core: load: the network does not end with a Dense layer over %d families", probe.NumFamilies)
	}
	m := &Model{
		Cfg:         cfg,
		TrainLayout: probe.NewLayout(train),
		Known:       make(map[int]bool, len(known)),
		Norm:        &norm,
		Net:         net,
		Aux:         aux,
		FullLayout:  probe.NewLayout(full),
		ServiceID:   serviceID,
	}
	if aux.Causes() != m.FullLayout.NumFeatures() {
		return nil, fmt.Errorf("core: load: the forest scores %d causes for %d full-layout features", aux.Causes(), m.FullLayout.NumFeatures())
	}
	if w := aux.Forest().Width(); w > m.FullLayout.NumFeatures() {
		return nil, fmt.Errorf("core: load: the forest splits on feature %d of %d full-layout features", w-1, m.FullLayout.NumFeatures())
	}
	for _, r := range known {
		m.Known[r] = true
	}
	return m, nil
}
