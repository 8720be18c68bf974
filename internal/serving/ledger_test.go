package serving

import (
	"slices"
	"sync"
	"testing"

	"rfdump/internal/history"
)

// TestLedgerOrderUnderConcurrentWriters holds the ledger's first
// invariant — sequence order == append order == publish order — with
// several goroutines writing detections and packets at once, over each
// store kind: a subscriber sees strictly increasing seqs with nothing
// missing, a cursor walk of the store returns exactly the retained
// records, and a ?since=-style catch-up (subscribe, Replay, then the
// live tail minus what the replay covered) started mid-run yields every
// seq exactly once.
func TestLedgerOrderUnderConcurrentWriters(t *testing.T) {
	const (
		writers    = 4
		detsEach   = 300
		pktsEach   = detsEach / 2
		total      = writers * (detsEach + pktsEach)
		evictedCap = 128 // the evicting store keeps this many of each type
	)
	stores := []struct {
		name string
		// retained is how many detections the store keeps of the run.
		retained int
		open     func(t *testing.T) history.Store
	}{
		{"memory", writers * detsEach, func(t *testing.T) history.Store {
			s, err := history.NewMemory(history.MemoryConfig{DetectionCap: total, PacketCap: total})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"memory-evicting", evictedCap, func(t *testing.T) history.Store {
			s, err := history.NewMemory(history.MemoryConfig{DetectionCap: evictedCap, PacketCap: evictedCap})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"disk", writers * detsEach, func(t *testing.T) history.Store {
			s, err := history.OpenDisk(history.DiskConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			broker := NewBroker(total+1, 0, nil) // deep enough that nothing drops
			led := NewLedger(tc.open(t), broker)
			defer led.Close()
			fromStart := broker.Subscribe()

			// The late joiner follows handleLive: subscribe first, replay
			// the store, then tail the feed past what the replay covered.
			half := make(chan struct{})
			joined := make(chan struct{})
			var late *Subscriber
			var replaySeqs []uint64
			var replayed uint64
			go func() {
				defer close(joined)
				<-half
				late = broker.Subscribe()
				replayed = led.Replay(0, func(string) bool { return true }, func(ev Event) {
					replaySeqs = append(replaySeqs, ev.Seq)
				})
			}()

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(stream uint64) {
					defer wg.Done()
					for i := 0; i < detsEach; i++ {
						if stream == 1 && i == detsEach/2 {
							close(half)
						}
						start := int64(i) * 100_000
						if err := led.Detection(&history.DetectionRecord{
							Stream: stream, TimeS: float64(i), Family: "wifi", Detector: "timing",
							AbsStart: start, AbsEnd: start + 20_000,
						}); err != nil {
							t.Error(err)
							return
						}
						if i%2 == 0 {
							if err := led.Packet(&history.PacketEvent{Stream: stream}, 0); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			<-joined
			if got := led.LastSeq(); got != total {
				t.Fatalf("ledger assigned %d seqs for %d writes", got, total)
			}

			// Publish order == sequence order, nothing missing.
			broker.Unsubscribe(fromStart)
			var detSeqs []uint64
			next := uint64(1)
			for ev := range fromStart.Events() {
				if ev.Seq != next {
					t.Fatalf("subscriber saw seq %d where %d was due", ev.Seq, next)
				}
				next++
				if ev.Type == "detection" {
					detSeqs = append(detSeqs, ev.Seq)
				}
			}
			if next != total+1 {
				t.Fatalf("subscriber saw %d events, want %d", next-1, total)
			}

			// Append order == sequence order: the cursor walk returns the
			// newest retained detections, each once, ascending.
			var walked []uint64
			if err := history.Walk(led.Store().QueryDetections, 0, func(recs []history.DetectionRecord) bool {
				for _, r := range recs {
					walked = append(walked, r.Seq)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := detSeqs[len(detSeqs)-tc.retained:]
			if !slices.Equal(walked, want) {
				t.Fatalf("cursor walk returned %d detections, want the %d retained:\n got %v\nwant %v",
					len(walked), len(want), walked, want)
			}

			if tc.retained != writers*detsEach {
				return // the replay cannot cover what retention evicted
			}
			// Replay + live tail == every seq exactly once.
			broker.Unsubscribe(late)
			seen := make([]int, total+1)
			for _, seq := range replaySeqs {
				seen[seq]++
			}
			for ev := range late.Events() {
				if ev.Seq > replayed {
					seen[ev.Seq]++
				}
			}
			for seq := 1; seq <= total; seq++ {
				if seen[seq] != 1 {
					t.Fatalf("catch-up delivered seq %d %d times (replay horizon %d, %d replayed)",
						seq, seen[seq], replayed, len(replaySeqs))
				}
			}
		})
	}
}
