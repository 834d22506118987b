package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// spanKind names a span's layer boundary.
type spanKind uint8

const (
	spanWorkload spanKind = iota // the whole traced pass
	spanCell                     // one cluster.Run
	spanSelect                   // Policy.Select
	spanDeparted                 // Policy.Departed
	spanQueueLen                 // StateView.QueueLen inside a sampled call
)

var spanNames = [...]string{"workload", "cell", "Select", "Departed", "QueueLen"}

// span is one recorded interval. Times are nanoseconds since the log's
// base; attr is the cell seed for a cell, the chosen computer for
// Select and Departed, and the queried computer for QueueLen.
type span struct {
	kind   spanKind
	parent int32 // index into spanLog.spans; -1 for the root
	job    int64 // shared by a sampled call and its QueueLen children
	attr   uint64
	start  int64
	dur    int64
}

// spanLog keeps the traced pass's spans in memory until exit. Per-call
// spans (Select, Departed and their QueueLen children) are head-sampled
// by a hash of the job ID, so every call of a sampled job is kept and
// the export stays small; the aggregate counts and durations are kept
// exactly by the tracer regardless of sampling.
type spanLog struct {
	base    time.Time
	mask    uint64
	max     int
	spans   []span
	dropped int64
}

// newSpanLog samples one job in 2^shift and keeps at most max spans.
func newSpanLog(shift uint, max int) *spanLog {
	return &spanLog{base: time.Now(), mask: 1<<shift - 1, max: max}
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread job-ID hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampled reports whether the job's calls are recorded as spans.
func (l *spanLog) sampled(job int64) bool {
	if l == nil || mix64(uint64(job))&l.mask != 0 {
		return false
	}
	if len(l.spans) >= l.max {
		l.dropped++
		return false
	}
	return true
}

// open reserves a span whose interval is filled in by close, so that
// children recorded meanwhile can name it as their parent.
func (l *spanLog) open(kind spanKind, parent int32, job int64) int32 {
	l.spans = append(l.spans, span{kind: kind, parent: parent, job: job})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(id int32, attr uint64, start time.Time, dur int64) {
	s := &l.spans[id]
	s.attr = attr
	s.start = start.Sub(l.base).Nanoseconds()
	s.dur = dur
}

// add records a complete child span; it inherits its parent's job ID.
func (l *spanLog) add(kind spanKind, parent int32, attr uint64, start time.Time, dur int64) {
	if len(l.spans) >= l.max {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{
		kind: kind, parent: parent, job: l.spans[parent].job, attr: attr,
		start: start.Sub(l.base).Nanoseconds(), dur: dur,
	})
}

// write exports the spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing), with the exact per-layer aggregates of
// the pass under "otherData".
func (l *spanLog) write(path string, summary map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	other, err := json.Marshal(summary)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[\n", other)
	var buf []byte
	for i, s := range l.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, `","ph":"X","pid":1,"tid":1,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.dur)/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"span":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"job":`...)
		buf = strconv.AppendInt(buf, s.job, 10)
		buf = append(buf, `,"attr":`...)
		buf = strconv.AppendUint(buf, s.attr, 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
