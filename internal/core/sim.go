package core

import (
	"fmt"

	"repro/internal/emac"
)

// This file implements the cycle-level simulation of Deep Positron's
// control flow (§III-E): "The compute cycle of each layer is triggered
// when its directly preceding layer has terminated computation for an
// input. This flow performs inference in a parallel streaming fashion. …
// A main control unit controls the flow of input data and activations
// throughout the network using a finite state machine."
//
// Each layer is a small FSM (idle → loading → draining) owning one EMAC
// per neuron; a layer consumes one activation per cycle from its
// predecessor's output register and hands its own output vector to the
// successor when done. Because layers work on *different inputs*
// concurrently, the pipeline sustains one inference per
// max_l(fanin_l + depth) cycles even though a single inference takes
// Σ_l (fanin_l + depth) cycles — the simulator verifies that the
// analytical model in hw.NetworkCost matches the executed schedule.

// layerState is the FSM state of one layer.
type layerState int

const (
	layerIdle layerState = iota
	layerBusy            // consuming activations, one per cycle
	layerDone            // output latched, waiting for successor handoff
)

func (s layerState) String() string {
	switch s {
	case layerIdle:
		return "idle"
	case layerBusy:
		return "busy"
	default:
		return "done"
	}
}

// simLayer is the runtime state of one layer in the streaming simulator:
// the FSM bookkeeping plus the layer's execution plane (borrowed from the
// network's default session — the simulator shares Infer's
// single-goroutine contract, and reusing the session keeps repeated
// StreamInfer calls from re-decoding the weights). The layer computes
// through the session's tiled pass at b=1.
type simLayer struct {
	layer *Layer
	exec  *execLayer
	state layerState
	// step counts consumed activations for the current input.
	step int
	// input holds the activation vector being consumed.
	input []emac.Code
	// output latches the completed result until handoff.
	output []emac.Code
	// tag identifies which inference the layer is working on.
	tag int
}

// TraceEvent records one FSM transition for inspection/testing.
type TraceEvent struct {
	Cycle int
	Layer int
	State string
	Tag   int // inference id
}

// StreamStats summarises a streaming run.
type StreamStats struct {
	Inputs          int
	TotalCycles     int
	FirstLatency    int     // cycles until the first output emerged
	SteadyInterval  int     // cycles between consecutive outputs at steady state
	ThroughputPerKC float64 // outputs per 1000 cycles
}

// StreamInfer runs the streaming pipeline over a batch of inputs,
// cycle by cycle, returning the outputs (decoded logits per input), the
// schedule statistics and (optionally, when trace is true) the FSM
// transition log. The numerical results are identical to calling Infer
// per input — the simulator only reorders *when* work happens, never
// what is computed — on a uniform or a mixed network alike: the format
// conversion at a mixed boundary runs when the layer fires. Like Infer,
// it drives the default session and is not safe for concurrent use.
func (n *Network) StreamInfer(inputs [][]float64, trace bool) ([][]float64, StreamStats, []TraceEvent) {
	if len(inputs) == 0 {
		return nil, StreamStats{}, nil
	}
	depth := pipelineDepth
	sess := n.session()
	layers := make([]*simLayer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = &simLayer{layer: l, exec: &sess.layers[i], state: layerIdle, tag: -1}
	}
	outputs := make([][]float64, len(inputs))
	outCycles := make([]int, 0, len(inputs))
	var events []TraceEvent
	record := func(cycle, li int, st layerState, tag int) {
		if trace {
			events = append(events, TraceEvent{Cycle: cycle, Layer: li, State: st.String(), Tag: tag})
		}
	}

	nextInput := 0
	produced := 0
	cycle := 0
	const maxCycles = 1 << 30
	for produced < len(inputs) && cycle < maxCycles {
		// Walk layers from the back so a handoff frees the predecessor
		// within the same cycle (register-to-register transfer).
		for li := len(layers) - 1; li >= 0; li-- {
			sl := layers[li]
			if sl.state != layerDone {
				continue
			}
			if li == len(layers)-1 {
				// readout layer: emit the network output
				logits := make([]float64, len(sl.output))
				for j, c := range sl.output {
					logits[j] = sess.ariths[li].Decode(c)
				}
				outputs[sl.tag] = logits
				outCycles = append(outCycles, cycle)
				produced++
				sl.state = layerIdle
				record(cycle, li, layerIdle, sl.tag)
				continue
			}
			succ := layers[li+1]
			if succ.state == layerIdle {
				succ.accept(sl.output, sl.tag)
				succ.state = layerBusy
				record(cycle, li+1, layerBusy, sl.tag)
				sl.state = layerIdle
				record(cycle, li, layerIdle, sl.tag)
			}
		}
		// Feed a new input into layer 0 if it is free.
		if nextInput < len(inputs) && layers[0].state == layerIdle {
			// Standardized with the session's copy of Stand, so the
			// whole pass reads one copy.
			x := inputs[nextInput]
			in := make([]emac.Code, len(x))
			quantizeInto(in, x, sess.ariths[0], sess.stand)
			layers[0].accept(in, nextInput)
			layers[0].state = layerBusy
			record(cycle, 0, layerBusy, nextInput)
			nextInput++
		}
		// Advance every busy layer by one activation cycle.
		for li, sl := range layers {
			if sl.state != layerBusy {
				continue
			}
			sl.step++
			if sl.step >= sl.layer.In+depth {
				sl.compute(sess, li)
				sl.state = layerDone
				record(cycle, li, layerDone, sl.tag)
			}
		}
		cycle++
	}
	if produced < len(inputs) {
		panic("core: streaming simulation did not converge")
	}

	stats := StreamStats{Inputs: len(inputs), TotalCycles: cycle}
	if len(outCycles) > 0 {
		// The output latches at the end of cycle outCycles[0]-1 and is
		// consumed in the handoff phase of cycle outCycles[0], so the
		// input→output latency equals the cycle index itself.
		stats.FirstLatency = outCycles[0]
	}
	if len(outCycles) > 1 {
		last := len(outCycles) - 1
		stats.SteadyInterval = outCycles[last] - outCycles[last-1]
	}
	if cycle > 0 {
		stats.ThroughputPerKC = 1000 * float64(produced) / float64(cycle)
	}
	return outputs, stats, events
}

// accept loads an input vector into the layer.
func (sl *simLayer) accept(input []emac.Code, tag int) {
	if len(input) != sl.layer.In {
		panic(fmt.Sprintf("core: layer expects %d inputs, got %d", sl.layer.In, len(input)))
	}
	sl.input = input
	sl.tag = tag
	sl.step = 0
}

// compute runs the layer's execution plane over the loaded input as a
// one-sample flush, then the session's activation for a hidden layer (the
// numeric work all happens when the FSM says the layer has finished
// consuming; the per-cycle Step calls are semantically identical, so we
// batch them). The output is latched into a fresh slice because the
// successor may still hold the previous one when the layer fires again.
func (sl *simLayer) compute(s *Session, li int) {
	out := make([]emac.Code, sl.layer.Out)
	sl.exec.forwardBatch(sl.input, out, 1)
	if li < len(s.layers)-1 {
		s.activate(li, out)
	}
	sl.output = out
}

// BottleneckCycles returns the steady-state initiation interval of the
// pipeline: max over layers of (fanin + depth).
func (n *Network) BottleneckCycles() int {
	max := 0
	for _, l := range n.Layers {
		if c := l.In + pipelineDepth; c > max {
			max = c
		}
	}
	return max
}
