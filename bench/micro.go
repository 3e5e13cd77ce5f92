package main

import (
	"runtime"
	"time"

	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// timing is the result of calling one function repeatedly.
type timing struct {
	us     float64 // median time per call
	allocB float64 // mean bytes allocated per call
}

// timeCalls calls fn until budget has passed (at least three times) and
// reports the median call time and the mean allocation per call.
func timeCalls(budget time.Duration, fn func()) timing {
	fn() // first call pays lazy set-up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var us []float64
	for start := time.Now(); len(us) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&m1)
	return timing{us: median(us), allocB: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(us))}
}

// microRows measures the layer rows that do not depend on the workload:
// the fused 64-row passes, the un-sessioned path, session construction,
// the matrix kernels at the widest layer's shapes, and the cost of the
// telemetry and tracing switches. budget is the time each row may take.
func microRows(fx *fixture, budget time.Duration) values {
	general := fx.bundle.General
	layout := fx.full
	rows := make([][]float64, batchSize)
	for i := range rows {
		rows[i] = fx.degraded.Samples[i%fx.degraded.Len()].Features
	}
	sess := general.NewSession()
	net := general.Net.Clone()
	x64 := mat.New(batchSize, layout.NumFeatures())
	for i, row := range rows {
		general.Norm.ApplyInto(row, layout, x64.Row(i))
	}
	x1 := mat.FromSlice(1, layout.NumFeatures(), x64.Row(0))

	v := values{}
	t := timeCalls(budget, func() { sess.DiagnoseBatch(rows, layout) })
	v["core.session_batch64.us_per_row"] = t.us / batchSize
	v["core.session_batch64.alloc_b_per_row"] = t.allocB / batchSize
	t = timeCalls(budget, func() { general.Diagnose(rows[0], layout) })
	v["core.model_diagnose.us"], v["core.model_diagnose.alloc_b"] = t.us, t.allocB
	t = timeCalls(budget, func() { general.NewSession() })
	v["core.new_session.us"], v["core.new_session.alloc_b"] = t.us, t.allocB
	t = timeCalls(budget, func() { net.InputGradientBatch(x64, nil) })
	v["nn.input_gradient_b64.us_per_row"] = t.us / batchSize
	v["nn.input_gradient_b64.alloc_b_per_row"] = t.allocB / batchSize
	v["nn.forward.us"] = timeCalls(budget, func() { net.Predict(x1) }).us

	// The widest layer is the first fully connected one (317→512 in Table
	// I). Operation counts are computed from the shapes, not measured.
	d := firstDense(general.Net)
	w := d.W.Value
	in1, in64 := mat.New(1, d.In), mat.New(batchSize, d.In)
	out64 := mat.New(batchSize, d.Out)
	for i := range in64.Data {
		in64.Data[i] = float64(i%7) - 3
	}
	for i := range out64.Data {
		out64.Data[i] = float64(i%5) - 2
	}
	copy(in1.Data, in64.Data)
	v["mat.mul_b1.us"] = timeCalls(budget/4, func() { mat.Mul(nil, in1, w) }).us
	v["mat.mul_b64.us"] = timeCalls(budget/4, func() { mat.Mul(nil, in64, w) }).us
	v["mat.mul_b64.gflops"] = 2 * float64(batchSize*d.In*d.Out) / (v["mat.mul_b64.us"] * 1e3)
	v["mat.mul_t1_b64.us"] = timeCalls(budget/4, func() { mat.MulT1(nil, in64, out64) }).us // weight gradient
	v["mat.mul_t2_b64.us"] = timeCalls(budget/4, func() { mat.MulT2(nil, out64, w) }).us    // input gradient

	// The cost of the two public switches on one session diagnosis, each
	// relative to everything on.
	one := func() { sess.Diagnose(rows[0], layout) }
	v["telemetry.overhead_share"] = overheadShare(2*budget, telemetry.SetEnabled, one)
	v["tracing.overhead_share"] = overheadShare(2*budget, tracing.SetEnabled, one)
	return v
}

// overheadShare times fn with a switch on and off in alternating blocks of
// twenty calls, so that drift of the machine hits both sides alike, and
// returns (on − off) / on over the medians. The switch is left on.
func overheadShare(budget time.Duration, set func(bool), fn func()) float64 {
	var on, off []float64
	for start := time.Now(); len(on) < 60 || time.Since(start) < budget; {
		for _, enabled := range []bool{true, false} {
			set(enabled)
			for i := 0; i < 20; i++ {
				t0 := time.Now()
				fn()
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				if enabled {
					on = append(on, us)
				} else {
					off = append(off, us)
				}
			}
		}
	}
	set(true)
	return (median(on) - median(off)) / median(on)
}

// firstDense returns the network's first fully connected layer; every
// DiagNet network has one after the LandPool.
func firstDense(net *nn.Network) *nn.Dense {
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			return d
		}
	}
	panic("bench: network without a fully connected layer")
}
