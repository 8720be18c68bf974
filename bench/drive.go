package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rfdump/internal/iq"
	"rfdump/internal/wire"
)

// schedule is the P phase's absolute timetable, shared by every
// sensor's transmitter: frame f is due at start + f·frame/paceRate.
type schedule struct {
	start    time.Time
	paceRate int
	// warmFrames are sent paced but not measured. The measured part is
	// windows windows of windowFrames each — one loop of the base trace,
	// so every window carries exactly the same traffic and the windows'
	// median is a fair summary that a stall in one of them cannot move.
	warmFrames, windowFrames, windows int
	fDur                              time.Duration
}

// pFrames is the whole paced phase, warm-up included.
func (s schedule) pFrames() int { return s.warmFrames + s.windows*s.windowFrames }

func (s schedule) due(frame int) time.Time {
	return s.start.Add(time.Duration(int64(frame) * frameSamples * int64(time.Second) / int64(s.paceRate)))
}

// dueOfSample is when the frame carrying absolute sample n (of the P
// phase) was due on the wire.
func (s schedule) dueOfSample(n int64) time.Time { return s.due(int(n / frameSamples)) }

// tick is the flood phase's progress at one instant.
type tick struct {
	at     time.Time
	frames int
}

// txReport is what one sensor's transmitter measured.
type txReport struct {
	late []time.Duration // per measured P frame: send start minus due
	busy time.Duration   // inside SendFrame during the measured P frames
	// marks are the cost counters at the measured windows' boundaries
	// (windows+1 of them; the measuring transmitter only).
	marks []snapshot
	// ticks sample the flood about once a second, from its first frame.
	ticks       []tick
	fSamples    int64
	totalFrames int
	err         error
}

// transmit streams one sensor's base trace, looped with a continuous
// sample counter, over one wire connection: paced on the absolute
// schedule (phase P), then unpaced until fDur has passed (phase F), then
// the End frame. One connection for both phases, because the fuser
// dedups by absolute span: sample offsets must never restart within a
// run. The transmitter with a non-nil pEnd owns the measurement
// boundaries: it snapshots the cost counters at every window edge and
// calls pEnd after the last paced frame.
func transmit(addr string, id uint32, base iq.Samples, s schedule, pEnd func()) txReport {
	var rep txReport
	client, err := wire.Dial(addr, wire.StreamMeta{StreamID: id, Rate: airRate, CenterHz: 2_437_000_000})
	if err != nil {
		rep.err = err
		return rep
	}
	frames := len(base) / frameSamples
	send := func(f int) error {
		off := (f % frames) * frameSamples
		return client.SendFrame(base[off : off+frameSamples])
	}
	f := 0
	for ; f < s.pFrames(); f++ {
		due := s.due(f)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if pEnd != nil && f >= s.warmFrames && (f-s.warmFrames)%s.windowFrames == 0 {
			rep.marks = append(rep.marks, takeSnapshot())
		}
		begin := time.Now()
		if rep.err = send(f); rep.err != nil {
			_ = client.Abort()
			return rep
		}
		if f >= s.warmFrames {
			rep.late = append(rep.late, begin.Sub(due))
			rep.busy += time.Since(begin)
		}
	}
	if pEnd != nil {
		rep.marks = append(rep.marks, takeSnapshot())
		pEnd()
	}
	rep.ticks = []tick{{time.Now(), f}}
	for fStart := rep.ticks[0].at; ; f++ {
		now := time.Now()
		if now.Sub(rep.ticks[len(rep.ticks)-1].at) >= time.Second {
			rep.ticks = append(rep.ticks, tick{now, f})
		}
		if now.Sub(fStart) >= s.fDur {
			break
		}
		if rep.err = send(f); rep.err != nil {
			_ = client.Abort()
			return rep
		}
		rep.fSamples += frameSamples
	}
	rep.totalFrames = f
	rep.err = client.Close()
	return rep
}

// feedEvent is one SSE event as the bench reads it off the socket: the
// JSON wire shape of serving.Event, only the fields the measurement
// needs.
type feedEvent struct {
	Seq       uint64 `json:"seq"`
	Type      string `json:"type"`
	Error     string `json:"error"`
	Detection *struct {
		Family   string `json:"family"`
		AbsStart int64  `json:"abs_start"`
		AbsEnd   int64  `json:"abs_end"`
	} `json:"detection"`
	Packet *struct {
		Start int64 `json:"start"`
		End   int64 `json:"end"`
		Valid bool  `json:"valid"`
	} `json:"packet"`
}

// received is one event with its receipt time.
type received struct {
	at         time.Time
	typ        string
	seq        uint64
	family     string // detections
	start, end int64
	valid      bool // packets
}

// feed is one SSE subscription read to the end of the run.
type feed struct {
	name string

	cancel context.CancelFunc
	done   chan struct{}
	// closed fires when a clean or failed stream-close arrives.
	closed    chan struct{}
	closeOnce sync.Once

	// count is events received so far, for the settle poll.
	count atomic.Int64

	// Written by the reader goroutine, read after done.
	events   []received
	closeErr string
	err      error
}

// subscribe opens /api/live and starts reading. It returns once the
// server has sent the feed's hello comment, so no event published from
// then on can be missed.
func subscribe(name, url string) (*feed, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if _, err := br.ReadString('\n'); err != nil { // ": rfdumpd live feed"
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%s: hello: %w", url, err)
	}
	fd := &feed{name: name, cancel: cancel, done: make(chan struct{}), closed: make(chan struct{})}
	go func() {
		defer close(fd.done)
		defer resp.Body.Close()
		fd.read(ctx, br)
	}()
	return fd, nil
}

func (fd *feed) read(ctx context.Context, br *bufio.Reader) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() == nil && err != io.EOF {
				fd.err = err
			}
			return
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		at := time.Now()
		var ev feedEvent
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			fd.err = fmt.Errorf("%s: bad event: %w", fd.name, err)
			return
		}
		r := received{at: at, typ: ev.Type, seq: ev.Seq}
		switch {
		case ev.Detection != nil:
			r.family, r.start, r.end = ev.Detection.Family, ev.Detection.AbsStart, ev.Detection.AbsEnd
		case ev.Packet != nil:
			r.start, r.end, r.valid = ev.Packet.Start, ev.Packet.End, ev.Packet.Valid
		}
		fd.events = append(fd.events, r)
		fd.count.Add(1)
		if ev.Type == "stream-close" {
			fd.closeErr = ev.Error
			fd.closeOnce.Do(func() { close(fd.closed) })
		}
	}
}

// stop ends the subscription and waits for the reader.
func (fd *feed) stop() {
	fd.cancel()
	<-fd.done
}

// pagerReport is what the node-dvr history pager measured.
type pagerReport struct {
	latency []time.Duration // from due time to page decoded, successful pages
	queries int
	errors  int
}

// page runs the DVR pager until stop closes: GET the detection history
// forward in pages of queryPage on a fixed queryRate schedule, wrapping
// to the beginning at the end. Open loop: a page is timed from when it
// was due.
func page(url string, stop <-chan struct{}) pagerReport {
	var rep pagerReport
	var cursor uint64
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / queryRate)
		select {
		case <-stop:
			return rep
		case <-time.After(time.Until(due)):
		}
		rep.queries++
		next, more, err := fetchPage(fmt.Sprintf("%s?cursor=%d&limit=%d", url, cursor, queryPage))
		if err != nil {
			rep.errors++
			continue
		}
		rep.latency = append(rep.latency, time.Since(due))
		cursor = next
		if !more {
			cursor = 0
		}
	}
}

func fetchPage(url string) (next uint64, more bool, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Next uint64 `json:"next_cursor"`
		More bool   `json:"more"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false, err
	}
	return body.Next, body.More, nil
}

// getJSON decodes one API response into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
