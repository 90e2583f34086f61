package telemetry

import "sort"

// Registry is the single rendezvous point for a process's telemetry:
// the monotonic counters and gauges the layers already keep, signed
// gauges for levels that can dip negative, latency histograms, and the
// span tracer. Everything a server knows about itself comes out of one
// Snapshot call, which serializes to JSON and merges across shards.
//
// A Registry is cheap to share: the kvnet server, the core store, and a
// replication peer all hold the same instance so their metrics land in
// one namespace.
type Registry struct {
	counters Counters
	gauges   Gauges
	ints     IntGauges
	hists    index[Histogram]
	tracer   *Tracer
	flight   *FlightRecorder
}

// NewRegistry returns an empty registry with sampling off.
func NewRegistry() *Registry {
	return &Registry{tracer: NewTracer(), flight: NewFlightRecorder()}
}

// Counters returns the registry's counter set.
func (r *Registry) Counters() *Counters { return &r.counters }

// Gauges returns the registry's unsigned gauge set.
func (r *Registry) Gauges() *Gauges { return &r.gauges }

// IntGauges returns the registry's signed gauge set.
func (r *Registry) IntGauges() *IntGauges { return &r.ints }

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Flight returns the registry's flight recorder.
func (r *Registry) Flight() *FlightRecorder { return r.flight }

// Histogram returns the histogram registered under name, creating it on
// first use. The returned pointer is stable; hot paths resolve a name
// once and Observe on the handle thereafter.
func (r *Registry) Histogram(name string) *Histogram {
	return r.hists.handle(name, NewHistogram)
}

// Snapshot is a point-in-time copy of a Registry, JSON-serializable and
// mergeable across shards or processes.
type Snapshot struct {
	Counters   map[string]uint64   `json:"counters,omitempty"`
	Gauges     map[string]uint64   `json:"gauges,omitempty"`
	IntGauges  map[string]int64    `json:"int_gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []*Span             `json:"spans,omitempty"`
	// Events is the flight recorder's ring at snapshot time; BlackBox
	// is its most recent anomaly dump, if any fired.
	Events   []Event   `json:"events,omitempty"`
	BlackBox *BlackBox `json:"black_box,omitempty"`
}

// Snapshot captures every metric the registry knows about, plus the
// tracer's retained spans.
func (r *Registry) Snapshot() Snapshot {
	// Publish the tracing/black-box levels as gauges so they ride the
	// same scrape as everything else.
	r.gauges.Set("trace.spans_published", r.tracer.Published())
	r.gauges.Set("blackbox.events_recorded", r.flight.Recorded())
	r.gauges.Set("blackbox.dumps", r.flight.Dumps())
	s := Snapshot{
		Counters:  map[string]uint64{},
		Gauges:    map[string]uint64{},
		IntGauges: map[string]int64{},
	}
	for _, e := range r.counters.Snapshot() {
		s.Counters[e.Name] = e.Value
	}
	for _, e := range r.gauges.Snapshot() {
		s.Gauges[e.Name] = e.Value
	}
	for _, e := range r.ints.Snapshot() {
		s.IntGauges[e.Name] = e.Value
	}
	r.hists.each(func(_ string, h *Histogram) {
		s.Histograms = append(s.Histograms, h.Snapshot())
	})
	s.Spans = r.tracer.Spans()
	s.Events = r.flight.Events()
	s.BlackBox = r.flight.LastDump()
	return s
}

// Merge folds o into s: same-named counters and gauges sum (counters
// because they are monotonic event totals; gauges because the merged
// view reads as a cluster-wide level, e.g. total keys across shards),
// histograms merge bucket-wise by name, and spans concatenate.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]uint64{}
	}
	if s.IntGauges == nil {
		s.IntGauges = map[string]int64{}
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range o.IntGauges {
		s.IntGauges[k] += v
	}
	byName := map[string]int{}
	for i, h := range s.Histograms {
		byName[h.Name] = i
	}
	for _, h := range o.Histograms {
		if i, ok := byName[h.Name]; ok {
			s.Histograms[i].Merge(h)
		} else {
			byName[h.Name] = len(s.Histograms)
			s.Histograms = append(s.Histograms, h)
		}
	}
	sort.Slice(s.Histograms, func(i, j int) bool {
		return s.Histograms[i].Name < s.Histograms[j].Name
	})
	s.Spans = append(s.Spans, o.Spans...)
	s.Events = append(s.Events, o.Events...)
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].UnixNs < s.Events[j].UnixNs
	})
	// Black boxes do not merge — keep the most recent anomaly.
	if o.BlackBox != nil &&
		(s.BlackBox == nil || o.BlackBox.CapturedUnixNs > s.BlackBox.CapturedUnixNs) {
		s.BlackBox = o.BlackBox
	}
}

// Histogram returns the named histogram snapshot, or a zero snapshot if
// absent.
func (s Snapshot) Histogram(name string) HistogramSnapshot {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramSnapshot{Name: name}
}
