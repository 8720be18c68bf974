package core

import (
	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
)

// BlockReader is the minimal live-input contract (satisfied by
// frontend.SampleSource): fill dst, return n read and io.EOF at end.
type BlockReader interface {
	ReadBlock(dst iq.Samples) (int, error)
}

// StreamConfig tunes RunStream.
type StreamConfig struct {
	// WindowSamples bounds retained history (default 1 s at 8 Msps /40,
	// i.e. 200 ms).
	WindowSamples int
	// OnDetection, if set, is called for every detection as it is made
	// (live monitoring UI); it must not retain the value. Under the
	// parallel scheduler it runs on the dispatcher's goroutine.
	OnDetection func(Detection)
	// OnOutput, if set, receives analyzer products (decoded packets) as
	// they are produced, on the sink's goroutine under the parallel
	// scheduler.
	OnOutput func(flowgraph.Item)
	// OnDetectionCapture, if set, fires after OnDetection with the
	// detection, the clipped absolute span of its triggering samples
	// (padded by CapturePad each side) and those samples themselves —
	// the raw IQ burst a spectrum DVR stores for later re-demodulation.
	// The sample slice is a session-owned buffer reused across
	// detections: consume or copy it before returning, never retain it.
	// Runs on the dispatcher's goroutine; must not block.
	OnDetectionCapture func(det Detection, span iq.Interval, burst iq.Samples)
	// CapturePad widens each captured span by this many samples on both
	// sides so demodulators re-running a snippet see the preamble ramp
	// (default one chunk, 200 samples; negative = no padding).
	CapturePad int
	// CaptureMaxSamples bounds one captured burst (default 65536). A
	// longer detection keeps its head — preamble and sync live there.
	CaptureMaxSamples int
	// NoRetain stops the Result from accumulating Detections/Requests
	// (when OnDetection is set) and Outputs (when OnOutput is set), so a
	// long-running live session uses bounded memory.
	NoRetain bool
	// Supervise, when non-nil, isolates block faults: panics are
	// recovered and erroring detectors/analyzers are quarantined (and
	// optionally readmitted after a backoff) instead of aborting the
	// run.
	Supervise *flowgraph.SupervisorConfig
	// Overload, when non-nil, enables watermark-based load shedding
	// against real time; shed work is accounted in Result.Degradation.
	Overload *OverloadConfig
	// OnSessionStart, if set, fires at the top of Session.Run with the
	// engine-assigned session id — the fan-out point where a
	// multi-session server announces a new live run (one per ingest
	// connection) to its subscribers.
	OnSessionStart func(id uint64)
	// OnSessionEnd, if set, fires after the session's flowgraph has
	// drained, with the run result (nil when Run failed) — the matching
	// teardown hook. Both hooks run on the Run caller's goroutine.
	OnSessionEnd func(id uint64, res *Result, err error)
}

// RunStream processes a live sample source with bounded memory: the
// real-time mode of the architecture ("the tool must run in real-time...
// our system can process transmissions after some delay (e.g., a second)
// but the processing must keep up", Section 1). The detectors, dispatcher
// and analyzers are identical to Run; only the sample storage differs.
// Detection and output callbacks fire incrementally as the scheduler
// produces items, and with Supervise/Overload set the run degrades
// gracefully (quarantine, load shedding) instead of dying.
//
// RunStream is one Session over the pipeline's engine; programs wanting
// several concurrent streaming runs over one configuration use Engine
// and Session directly.
func (p *Pipeline) RunStream(src BlockReader, cfg StreamConfig) (*Result, error) {
	s, err := p.engine.session(p.analyzers, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(src)
}
