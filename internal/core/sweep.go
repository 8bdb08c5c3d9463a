package core

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/datasets"
	"repro/internal/emac"
	"repro/internal/nn"
)

// Candidates enumerates the paper's §IV-B configuration grid for one bit
// width n: posit sweeps es, float sweeps we, fixed sweeps q ("all
// possible combinations of [5,8] bit-widths for the three numerical
// formats").
func Candidates(n uint) (posits, floats, fixeds []emac.Arithmetic) {
	for es := uint(0); es <= 3 && es+3 <= n; es++ {
		posits = append(posits, emac.NewPosit(n, es))
	}
	for we := uint(2); we+1 < n && we <= 6; we++ {
		floats = append(floats, emac.NewFloatN(n, we))
	}
	for q := uint(1); q < n; q++ {
		fixeds = append(fixeds, emac.NewFixed(n, q))
	}
	return posits, floats, fixeds
}

// Result is one evaluated configuration.
type Result struct {
	Arith    emac.Arithmetic
	Accuracy float64
}

// Evaluate quantises the trained network with each candidate arithmetic
// and measures test accuracy, returning results sorted best-first (ties
// broken toward the earlier candidate, keeping the sweep deterministic).
// Candidates are evaluated concurrently — each gets its own quantised
// network, so there is no shared EMAC state — and results are collected
// by index before the stable sort, so the output is identical to a
// serial sweep.
func Evaluate(src *nn.Network, test *datasets.Dataset, cands []emac.Arithmetic) []Result {
	out := make([]Result, len(cands))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := Quantize(src, cands[i])
				out[i] = Result{Arith: cands[i], Accuracy: q.Accuracy(test)}
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Accuracy > out[j].Accuracy })
	return out
}

// Best returns the best result of Evaluate.
func Best(src *nn.Network, test *datasets.Dataset, cands []emac.Arithmetic) Result {
	if len(cands) == 0 {
		panic("core: Best with no candidates")
	}
	return Evaluate(src, test, cands)[0]
}

// FamilyBest holds the per-family winners at one bit width — the row
// structure of the paper's Table II.
type FamilyBest struct {
	N     uint
	Posit Result
	Float Result
	Fixed Result
}

// BestPerFamily sweeps every candidate of every family at bit width n.
func BestPerFamily(src *nn.Network, test *datasets.Dataset, n uint) FamilyBest {
	posits, floats, fixeds := Candidates(n)
	return FamilyBest{
		N:     n,
		Posit: Best(src, test, posits),
		Float: Best(src, test, floats),
		Fixed: Best(src, test, fixeds),
	}
}

// SearchPerLayerFixed performs one pass of coordinate descent over
// per-layer fixed-point fraction widths at total width n: start from the
// best global q, then re-optimise each layer's q holding the others
// fixed. A single shared Q-format must compromise between layers whose
// activations live at different scales; per-layer q removes that
// compromise (the global-q collapse on WBC is the paper's Table II
// fixed-point story). It returns the mixed network and the chosen q per
// layer.
func SearchPerLayerFixed(src *nn.Network, test *datasets.Dataset, n uint) (*Network, []uint) {
	_, _, fixeds := Candidates(n)
	globalBest := Best(src, test, fixeds)
	globalQ := globalBest.Arith.(emac.FixedArith).F.Q()

	qs := make([]uint, len(src.Layers))
	for i := range qs {
		qs[i] = globalQ
	}
	build := func(qs []uint) *Network {
		ariths := make([]emac.Arithmetic, len(qs))
		for i, q := range qs {
			ariths[i] = emac.NewFixed(n, q)
		}
		return QuantizeMixed(src, ariths)
	}
	bestAcc := build(qs).Accuracy(test)
	for li := range qs {
		for q := uint(1); q < n; q++ {
			if q == qs[li] {
				continue
			}
			trial := append([]uint(nil), qs...)
			trial[li] = q
			if acc := build(trial).Accuracy(test); acc > bestAcc {
				bestAcc = acc
				qs = trial
			}
		}
	}
	return build(qs), qs
}
