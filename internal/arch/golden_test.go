package arch

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rfdump/internal/core"
	"rfdump/internal/demod"
	"rfdump/internal/ether"
	"rfdump/internal/iq"
	"rfdump/internal/mac"
	"rfdump/internal/phy/wifi"
	"rfdump/internal/protocols"
	"rfdump/internal/trace"
)

// update regenerates the golden trace and the expected packet log. Run
//
//	go test ./internal/arch -run TestGoldenTrace -update
//
// after an intentional pipeline change and review the diff of
// testdata/golden.json like any other code change.
var update = flag.Bool("update", false, "regenerate testdata/golden.rfd and testdata/golden.json")

// The golden piconet mirrors the experiments package constants
// (the inquiry-scan LAP the paper's l2ping microbenchmark uses).
const (
	goldenLAP = 0x9E8B33
	goldenUAP = 0x47
)

// goldenDetection is one expected detection, with the confidence
// quantized so the comparison is exact.
type goldenDetection struct {
	Family     string `json:"family"`
	Detector   string `json:"detector"`
	Start      int64  `json:"start"`
	End        int64  `json:"end"`
	Channel    int    `json:"channel"`
	Confidence int64  `json:"confidence_millis"`
}

// goldenPacket is one expected decoded packet.
type goldenPacket struct {
	Proto   string `json:"proto"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Channel int    `json:"channel"`
	Valid   bool   `json:"valid"`
	Frame   int    `json:"frame_bytes"`
}

// goldenLog is the checked-in expectation: every detection of the golden
// trace in pipeline order, and every decoded packet sorted by (start,
// proto) — the golden pins what is decoded, not the order requests leave
// the dispatcher in.
type goldenLog struct {
	Rate       int               `json:"rate"`
	Samples    int               `json:"samples"`
	Detections []goldenDetection `json:"detections"`
	Packets    []goldenPacket    `json:"packets"`
}

// goldenAddr builds a locally-administered MAC address.
func goldenAddr(b byte) (a wifi.Addr) {
	a[0] = 0x02
	a[5] = b
	return a
}

// goldenEther emits the deterministic trace: two 802.11b unicast
// exchanges and one Bluetooth l2ping exchange sharing the ether, sized
// automatically to the last transmission.
func goldenEther() (*ether.Result, error) {
	return ether.Run(ether.Config{
		SNRdB: 20,
		Seed:  7,
		Sources: []mac.Source{
			&mac.WiFiUnicast{
				Rate: protocols.WiFi80211b1M, Pings: 2,
				PayloadBytes: 120, InterPing: 24_000,
				Requester: goldenAddr(0x11),
				Responder: goldenAddr(0x22),
				BSSID:     goldenAddr(0x33),
			},
			&mac.BluetoothPiconet{
				LAP: goldenLAP, UAP: goldenUAP, Pings: 2,
				MinPayload: 225, MaxPayload: 225,
				// The hop sequence for this LAP lands on channels 53 and
				// 56 at slots 10 and 15 (the second ping exchange), so a
				// monitored band of [50, 58) makes both packets audible.
				MonitorBaseChannel: 50,
			},
		},
	})
}

// goldenRun processes samples through the pipeline under lockdown: both
// fast-detector families plus the full analysis stage.
func goldenRun(clock iq.Clock, samples iq.Samples) (*Result, error) {
	mon := NewRFDump("golden", clock, core.TimingAndPhase(),
		demod.NewWiFiDemod(),
		demod.NewBTDemod(goldenLAP, goldenUAP, 8),
	)
	return mon.Process(samples)
}

// quantize maps a confidence in [0,1] to integer thousandths, rounding
// half away from zero, so the golden file compares exactly.
func quantize(c float64) int64 {
	return int64(math.Round(c * 1000))
}

func logFrom(rate int, n int, out *Result) goldenLog {
	g := goldenLog{Rate: rate, Samples: n}
	for _, d := range out.Detections {
		g.Detections = append(g.Detections, goldenDetection{
			Family:     d.Family.FamilyName(),
			Detector:   d.Detector,
			Start:      int64(d.Span.Start),
			End:        int64(d.Span.End),
			Channel:    d.Channel,
			Confidence: quantize(d.Confidence),
		})
	}
	for _, p := range out.Packets {
		g.Packets = append(g.Packets, goldenPacket{
			Proto:   p.Proto.String(),
			Start:   int64(p.Span.Start),
			End:     int64(p.Span.End),
			Channel: p.Channel,
			Valid:   p.Valid,
			Frame:   len(p.Frame),
		})
	}
	sort.SliceStable(g.Packets, func(i, j int) bool {
		a, b := g.Packets[i], g.Packets[j]
		return a.Start < b.Start || a.Start == b.Start && a.Proto < b.Proto
	})
	return g
}

// TestGoldenTrace locks down the full detect→dispatch→analyze pipeline
// against a checked-in trace: any change to a detection boundary,
// protocol label, confidence, channel, or decoded packet fails the test
// with a field-level diff. Regenerate intentionally with -update.
func TestGoldenTrace(t *testing.T) {
	tracePath := filepath.Join("testdata", "golden.rfd")
	logPath := filepath.Join("testdata", "golden.json")

	if *update {
		res, err := goldenEther()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFile(tracePath, res.Clock.Rate, res.Samples); err != nil {
			t.Fatal(err)
		}
		out, err := goldenRun(res.Clock, res.Samples)
		if err != nil {
			t.Fatal(err)
		}
		g := logFrom(res.Clock.Rate, len(res.Samples), out)
		buf, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d samples) and %s (%d detections, %d packets)",
			tracePath, len(res.Samples), logPath, len(g.Detections), len(g.Packets))
		return
	}

	hdr, samples, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading golden trace (regenerate with -update): %v", err)
	}
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("reading golden log (regenerate with -update): %v", err)
	}
	var want goldenLog
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if hdr.Rate != want.Rate || len(samples) != want.Samples {
		t.Fatalf("trace/log mismatch: trace %d samples at %d Hz, log expects %d at %d",
			len(samples), hdr.Rate, want.Samples, want.Rate)
	}

	out, err := goldenRun(iq.NewClock(hdr.Rate), samples)
	if err != nil {
		t.Fatal(err)
	}
	got := logFrom(hdr.Rate, len(samples), out)

	if len(got.Detections) != len(want.Detections) {
		t.Errorf("detections: got %d, want %d", len(got.Detections), len(want.Detections))
	}
	for i := range min(len(got.Detections), len(want.Detections)) {
		if got.Detections[i] != want.Detections[i] {
			t.Errorf("detection[%d]:\n  got  %+v\n  want %+v", i, got.Detections[i], want.Detections[i])
		}
	}
	if len(got.Packets) != len(want.Packets) {
		t.Errorf("packets: got %d, want %d", len(got.Packets), len(want.Packets))
	}
	for i := range min(len(got.Packets), len(want.Packets)) {
		if got.Packets[i] != want.Packets[i] {
			t.Errorf("packet[%d]:\n  got  %+v\n  want %+v", i, got.Packets[i], want.Packets[i])
		}
	}
	if t.Failed() {
		t.Log("golden mismatch: if the pipeline change is intentional, regenerate with -update and review the diff")
	}
}
