package core

import (
	"fmt"
	"time"

	"rfdump/internal/flowgraph"
	"rfdump/internal/iq"
	"rfdump/internal/metrics"
	"rfdump/internal/protocols"
)

// Analyzer is the analysis-stage plug-in interface (demodulators,
// header-only decoders, deep packet inspection — "Functionality
// Extensible", Section 2.1). Analyzers receive merged AnalysisRequests
// and read samples through the accessor; whatever they emit is collected
// in the run result's Outputs. It is an alias of the registry-facing
// interface so protocol modules can carry analyzer factories without a
// dependency cycle.
type Analyzer = protocols.Analyzer

// RegistryAnalyzers builds one analyzer per registered module that has
// an analysis capability, in module registration order.
func RegistryAnalyzers(opts protocols.AnalyzerOptions) []Analyzer {
	var out []Analyzer
	for _, m := range protocols.Modules() {
		if a := m.NewAnalyzer(opts); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// RegistryAnalyzerFactories is RegistryAnalyzers for the multi-session
// Engine: one factory per analysis-capable module, each stamping out
// fresh instances.
func RegistryAnalyzerFactories(opts protocols.AnalyzerOptions) []AnalyzerFactory {
	var out []AnalyzerFactory
	for _, m := range protocols.Modules() {
		if !m.HasAnalyzer() {
			continue
		}
		m := m
		out = append(out, func() Analyzer { return m.NewAnalyzer(opts) })
	}
	return out
}

// StreamAccessor adapts an in-memory stream to SampleAccessor.
type StreamAccessor struct {
	Stream iq.Samples
}

// Slice implements SampleAccessor with clipping.
func (s *StreamAccessor) Slice(iv iq.Interval) iq.Samples {
	start, end := int64(iv.Start), int64(iv.End)
	if start < 0 {
		start = 0
	}
	if end > int64(len(s.Stream)) {
		end = int64(len(s.Stream))
	}
	if end <= start {
		return nil
	}
	return s.Stream[start:end]
}

// Config selects which fast detectors the pipeline runs. Detectors are
// registry specs — either resolved from the module registry by
// ParseDetectors, or built directly with the spec constructors
// (WiFiTimingSpec, BTPhaseSpec, ...). The experiments use the latter to
// produce the paper's "RFDump with timing detection", "... with phase
// detection" and "... with timing and phase" variants.
type Config struct {
	Peak     PeakConfig
	Dispatch DispatcherConfig
	// Detectors is the fast-detector set, assembled in order (duplicate
	// block names are dropped after the first).
	Detectors []protocols.DetectorSpec
	// Parallel runs the flowgraph with the multi-threaded scheduler (the
	// paper's future-work extension; default single-threaded like GNU
	// Radio at the time).
	Parallel bool
	// DemodWorkers shards the analysis stage across this many worker
	// goroutines: each analysis request is handed to a work-stealing
	// worker pool in which every worker owns a private set of analyzer
	// instances, and the decoded outputs are re-sequenced so downstream
	// consumers see exactly the single-threaded order. 0 or 1 keeps the
	// inline per-analyzer chain; negative selects GOMAXPROCS. Sharding
	// needs analyzer factories to stamp per-worker instances, so it
	// applies on the Engine/Session path (NewEngine with factories); the
	// instance-sharing Pipeline path ignores it.
	DemodWorkers int
	// Metrics, when non-nil, publishes the run's observability surface
	// into the registry: per-block flowgraph stats, per-detector
	// ns/chunk histograms and accept/reject counters, per-analyzer
	// request costs, per-protocol detection/forwarding counters and CRC
	// pass rates (labelled from the module registry), and (with
	// Overload) shed-level transitions. Nil disables all instrumentation
	// at zero hot-path cost.
	Metrics *metrics.Registry
}

// Detect returns a Config running the given detector specs.
func Detect(specs ...protocols.DetectorSpec) Config {
	return Config{Detectors: specs}
}

// TimingOnly returns the configuration using only timing detectors.
func TimingOnly() Config {
	return Detect(WiFiTimingSpec(WiFiTimingConfig{}), BTTimingSpec(BTTimingConfig{}))
}

// PhaseOnly returns the configuration using only phase detectors.
func PhaseOnly() Config {
	return Detect(WiFiPhaseSpec(WiFiPhaseConfig{}), BTPhaseSpec(BTPhaseConfig{}))
}

// TimingAndPhase returns the combined configuration.
func TimingAndPhase() Config {
	c := TimingOnly()
	c.Detectors = append(c.Detectors, PhaseOnly().Detectors...)
	return c
}

// Result summarizes one pipeline run.
type Result struct {
	// Detections is every fast-detector verdict.
	Detections []Detection
	// Requests is every merged span forwarded to analysis.
	Requests []AnalysisRequest
	// Outputs collects everything the analyzers emitted (decoded
	// packets, diagnostics).
	Outputs []flowgraph.Item
	// Stats is the per-block CPU accounting.
	Stats []flowgraph.BlockStat
	// Busy is the total single-thread CPU time.
	Busy time.Duration
	// StreamLen is the processed trace length.
	StreamLen iq.Tick
	// Clock converts ticks to time.
	Clock iq.Clock
	// Degradation accounts work shed under overload and dropped by
	// supervision (all-zero for a clean run).
	Degradation Degradation
}

// CPUPerRealTime returns the paper's headline efficiency metric:
// CPU time / real time of the trace.
func (r *Result) CPUPerRealTime() float64 {
	rt := r.Clock.Duration(r.StreamLen)
	if rt <= 0 {
		return 0
	}
	return float64(r.Busy) / float64(rt)
}

// ForwardedSpans returns merged forwarded intervals for a family.
func (r *Result) ForwardedSpans(family protocols.ID) []iq.Interval {
	var out []iq.Interval
	for _, req := range r.Requests {
		if req.Family.Family() == family.Family() {
			out = append(out, req.Span)
		}
	}
	return iq.Merge(out)
}

// Pipeline is the assembled RFDump architecture: chunk source → peak
// detector (with integrated energy filter) → protocol-specific fast
// detectors → dispatcher → analyzers (Figure 2). It is the
// one-run-at-a-time façade over an Engine with a fixed analyzer set;
// programs that want several concurrent streaming runs build an Engine
// with analyzer factories and open Sessions directly.
type Pipeline struct {
	engine    *Engine
	analyzers []Analyzer
}

// NewPipeline builds a pipeline description; Run assembles a fresh
// flowgraph per trace (detector state never leaks across runs).
func NewPipeline(clock iq.Clock, cfg Config, analyzers ...Analyzer) *Pipeline {
	return &Pipeline{engine: NewEngine(clock, cfg), analyzers: analyzers}
}

// analyzerBlock adapts an Analyzer to a flowgraph.Block, filtering
// requests by family.
type analyzerBlock struct {
	a   Analyzer
	src SampleAccessor
}

func (b *analyzerBlock) Name() string { return b.a.Name() }

func (b *analyzerBlock) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	req, ok := item.(AnalysisRequest)
	if !ok || !b.a.Accepts(req.Family) {
		return nil
	}
	return b.a.Analyze(b.src, req, emit)
}

func (b *analyzerBlock) Flush(func(flowgraph.Item)) error { return nil }

// analyzerSetBlock is one sharded worker's replica: a full analyzer set
// run in registration order against each request, exactly the order the
// inline per-analyzer chain delivers (the dispatcher fans a request to
// every analyzer block in the order they were connected).
type analyzerSetBlock struct {
	analyzers []Analyzer
	src       SampleAccessor
}

func (b *analyzerSetBlock) Name() string { return "analyzers" }

func (b *analyzerSetBlock) Process(item flowgraph.Item, emit func(flowgraph.Item)) error {
	req, ok := item.(AnalysisRequest)
	if !ok {
		return nil
	}
	for _, a := range b.analyzers {
		if !a.Accepts(req.Family) {
			continue
		}
		if err := a.Analyze(b.src, req, emit); err != nil {
			return err
		}
	}
	return nil
}

func (b *analyzerSetBlock) Flush(func(flowgraph.Item)) error { return nil }

// sinkBlock collects analyzer outputs and/or delivers them live.
type sinkBlock struct {
	items  *[]flowgraph.Item
	onItem func(flowgraph.Item)
	retain bool
}

func (s *sinkBlock) Name() string { return "sink" }
func (s *sinkBlock) Process(item flowgraph.Item, _ func(flowgraph.Item)) error {
	if s.retain {
		*s.items = append(*s.items, item)
	}
	if s.onItem != nil {
		s.onItem(item)
	}
	return nil
}
func (s *sinkBlock) Flush(func(flowgraph.Item)) error { return nil }

// assembleOpts tunes assemble for the streaming path: live delivery
// hooks, retention control, and the overload shed gate.
type assembleOpts struct {
	onDetection func(Detection)
	onOutput    func(flowgraph.Item)
	noRetainDet bool // drop Detections/Requests accumulation
	noRetainOut bool // drop Outputs accumulation
	gate        *shedGate
}

// assemble builds the flowgraph for one run over the given accessor:
// peak detector -> enabled fast detectors -> dispatcher [-> shed gate]
// -> analyzers -> sink, plus peak detector -> dispatcher for the
// watermark.
func (e *Engine) assemble(analyzers []Analyzer, src SampleAccessor, opts assembleOpts) (*flowgraph.Graph, *Dispatcher, *[]flowgraph.Item, error) {
	graph := flowgraph.New()

	peak := NewPeakDetector(e.cfg.Peak)
	graph.MustAdd(peak)
	graph.MustRoot("peak-detector")

	dispatcher := NewDispatcher(e.cfg.Dispatch)
	dispatcher.OnDetection = opts.onDetection
	dispatcher.Retain = !opts.noRetainDet
	dispatcher.instrument(e.cfg.Metrics)
	graph.MustAdd(dispatcher)

	// The detector stage is assembled from registry specs: every module
	// that registered a detector participates the same way, built-in or
	// not ("a new protocol is added by registering a detector", §3.2).
	env := protocols.DetectorEnv{Clock: e.clock, Samples: src}
	added := 0
	seen := map[string]bool{}
	for _, spec := range e.cfg.Detectors {
		if spec.New == nil || seen[spec.Name] {
			continue
		}
		seen[spec.Name] = true
		b := spec.New(env)
		if b.Name() != spec.Name {
			return nil, nil, nil, fmt.Errorf("core: detector spec %q built a block named %q", spec.Name, b.Name())
		}
		graph.MustAdd(meter(e.cfg.Metrics, "detector", "ns_per_chunk", b))
		graph.MustConnect("peak-detector", b.Name())
		graph.MustConnect(b.Name(), "dispatcher")
		added++
	}
	if added == 0 {
		return nil, nil, nil, fmt.Errorf("core: pipeline has no detectors enabled")
	}
	// The dispatcher flushes on the peak detector's watermark. This edge
	// comes after the detectors': the serial scheduler delivers in edge
	// order, so chunk k's meta arrives after chunk k's detections.
	graph.MustConnect("peak-detector", "dispatcher")

	outputs := new([]flowgraph.Item)
	sink := &sinkBlock{items: outputs, onItem: opts.onOutput, retain: !opts.noRetainOut}
	graph.MustAdd(sink)
	analyzerUpstream := "dispatcher"
	if opts.gate != nil {
		graph.MustAdd(opts.gate)
		graph.MustConnect("dispatcher", opts.gate.Name())
		analyzerUpstream = opts.gate.Name()
	}
	if e.sharded() {
		// One sharded stage replaces the per-analyzer chain: each worker
		// stamps its own analyzer set from the factories (analyzers carry
		// scratch state and cannot be shared), runs the accepting ones in
		// registration order, and the stage re-sequences emissions so the
		// sink sees the inline order. Per-analyzer metering does not apply
		// — the stage accounts its workers' CPU in bulk via OffThreadBusy.
		sh := flowgraph.NewSharded("analyzers", e.demodWorkers(), func(int) flowgraph.Block {
			set := make([]Analyzer, len(e.factories))
			for i, f := range e.factories {
				set[i] = f()
			}
			return &analyzerSetBlock{analyzers: set, src: src}
		})
		graph.MustAdd(sh)
		graph.MustConnect(analyzerUpstream, sh.Name())
		graph.MustConnect(sh.Name(), "sink")
	} else {
		for _, a := range analyzers {
			b := &analyzerBlock{a: a, src: src}
			graph.MustAdd(meter(e.cfg.Metrics, "analyzer", "ns_per_request", b))
			graph.MustConnect(analyzerUpstream, b.Name())
			graph.MustConnect(b.Name(), "sink")
		}
	}
	// Publish per-block work/queue/panic stats into the registry (no-op
	// without one).
	graph.AttachMetrics(e.cfg.Metrics, "flowgraph")
	return graph, dispatcher, outputs, nil
}

// Run processes a full trace.
func (p *Pipeline) Run(stream iq.Samples) (*Result, error) {
	src := &StreamAccessor{Stream: stream}
	graph, dispatcher, outputs, err := p.engine.assemble(p.analyzers, src, assembleOpts{})
	if err != nil {
		return nil, err
	}

	// Chunk source.
	nchunks := (len(stream) + iq.ChunkSamples - 1) / iq.ChunkSamples
	seq := 0
	source := func() (flowgraph.Item, bool) {
		if seq >= nchunks {
			return nil, false
		}
		start := seq * iq.ChunkSamples
		end := start + iq.ChunkSamples
		if end > len(stream) {
			end = len(stream)
		}
		c := Chunk{
			Seq:     seq,
			Span:    iq.Interval{Start: iq.Tick(start), End: iq.Tick(end)},
			Samples: stream[start:end],
		}
		seq++
		return c, true
	}

	if p.engine.cfg.Parallel {
		err = graph.RunParallel(source, 128)
	} else {
		err = graph.Run(source)
	}
	if err != nil {
		return nil, err
	}

	stats := graph.Stats()
	return &Result{
		Detections:  dispatcher.All,
		Requests:    dispatcher.Requests,
		Outputs:     *outputs,
		Stats:       stats,
		Busy:        graph.TotalBusy(),
		StreamLen:   iq.Tick(len(stream)),
		Clock:       p.engine.clock,
		Degradation: degradationFrom(stats, nil),
	}, nil
}
