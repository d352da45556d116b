// Package provenance implements the transparency perspective of the paper's
// §III-b: an append-only record store that captures who produced each data
// item, when, by what process, and from which inputs, so that the questions
// the paper lists — "who created this data item and when, by whom was it
// modified, what process was used" — are answerable for every recommendation
// the engine emits.
//
// Records carry one of the paper's three trust sources (observation,
// inference, belief adoption) and form a DAG through their input references;
// Lineage walks it. The core engine writes one record per pipeline stage
// (ingest, delta, measure evaluation, recommendation), which makes every
// recommendation reproducible from its transparency report.
package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Source classifies how a record's content was established; the paper names
// these three sources for assessing correctness and reliability.
type Source uint8

const (
	// Observation marks directly observed data (e.g. an ingested version).
	Observation Source = iota
	// Inference marks derived data (e.g. a computed delta or measure).
	Inference
	// BeliefAdoption marks data taken on trust from another agent.
	BeliefAdoption
)

// String names the source.
func (s Source) String() string {
	switch s {
	case Observation:
		return "observation"
	case Inference:
		return "inference"
	case BeliefAdoption:
		return "belief_adoption"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Record is one provenance entry: an activity performed by an agent that
// consumed input records and produced named artifacts.
type Record struct {
	// ID is the unique record identifier, assigned by the store.
	ID string
	// Activity names the process that ran (e.g. "compute_delta").
	Activity string
	// Agent names who/what ran it (user name or component name).
	Agent string
	// Source classifies the trust source of the produced data.
	Source Source
	// Time is when the activity completed.
	Time time.Time
	// Inputs lists the IDs of records whose artifacts were consumed.
	Inputs []string
	// Artifacts names the data items produced (e.g. "delta:v1:v2").
	Artifacts []string
	// Note is free-form documentation.
	Note string
}

// Store is an append-only provenance log with artifact and lineage indexes.
// The zero value is not ready; use NewStore. Store is safe for concurrent
// use: every recommendation the service layer runs in parallel appends its
// record here, so the log carries its own lock rather than leaning on the
// callers' discipline. Records handed out are shared — treat them as
// immutable.
type Store struct {
	mu        sync.RWMutex
	records   []*Record
	byID      map[string]*Record
	producers map[string][]string // artifact -> producing record IDs, in order
	seq       int
	now       func() time.Time
}

// NewStore returns an empty store stamping records with time.Now.
func NewStore() *Store {
	return &Store{
		byID:      make(map[string]*Record),
		producers: make(map[string][]string),
		now:       time.Now,
	}
}

// NewStoreWithClock returns a store using the given clock; tests and
// deterministic experiment runs inject a fixed clock.
func NewStoreWithClock(clock func() time.Time) *Store {
	s := NewStore()
	s.now = clock
	return s
}

// Append validates and stores a record, assigning its ID and timestamp.
// Every input must reference an existing record; at least one artifact must
// be produced.
func (s *Store) Append(activity, agent string, src Source, inputs, artifacts []string, note string) (*Record, error) {
	if activity == "" {
		return nil, fmt.Errorf("provenance: activity must not be empty")
	}
	if len(artifacts) == 0 {
		return nil, fmt.Errorf("provenance: record for %q must produce at least one artifact", activity)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range inputs {
		if _, ok := s.byID[in]; !ok {
			return nil, fmt.Errorf("provenance: input record %q does not exist", in)
		}
	}
	s.seq++
	r := &Record{
		ID:        recordID(s.seq),
		Activity:  activity,
		Agent:     agent,
		Source:    src,
		Time:      s.now(),
		Inputs:    append([]string(nil), inputs...),
		Artifacts: append([]string(nil), artifacts...),
		Note:      note,
	}
	s.records = append(s.records, r)
	s.byID[r.ID] = r
	for _, a := range r.Artifacts {
		s.producers[a] = append(s.producers[a], r.ID)
	}
	return r, nil
}

// recordID renders seq in the "r%06d" form in a single allocation. Append
// sits on every served request, and fmt's printer cache is a sync.Pool,
// which may drop any Put and so makes the per-request allocation count
// vary from call to call.
func recordID(seq int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(seq), 10)
	var buf [32]byte
	b := append(buf[:0], 'r')
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Get returns the record with the given ID.
func (s *Store) Get(id string) (*Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byID[id]
	return r, ok
}

// Records returns all records in append order.
func (s *Store) Records() []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Record, len(s.records))
	copy(out, s.records)
	return out
}

// ProducersOf returns the records that produced the artifact, in append
// order. The first is the creator; later ones are modifications.
func (s *Store) ProducersOf(artifact string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.producersOfLocked(artifact)
}

func (s *Store) producersOfLocked(artifact string) []*Record {
	ids := s.producers[artifact]
	out := make([]*Record, len(ids))
	for i, id := range ids {
		out[i] = s.byID[id]
	}
	return out
}

// Creator returns the record that first produced the artifact.
func (s *Store) Creator(artifact string) (*Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.creatorLocked(artifact)
}

func (s *Store) creatorLocked(artifact string) (*Record, bool) {
	ps := s.producers[artifact]
	if len(ps) == 0 {
		return nil, false
	}
	return s.byID[ps[0]], true
}

// Modifiers returns the records that re-produced the artifact after its
// creation.
func (s *Store) Modifiers(artifact string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.modifiersLocked(artifact)
}

func (s *Store) modifiersLocked(artifact string) []*Record {
	ps := s.producersOfLocked(artifact)
	if len(ps) <= 1 {
		return nil
	}
	return ps[1:]
}

// Lineage returns every record the artifact transitively depends on,
// including its own producers, ordered by record ID (i.e. creation order).
func (s *Store) Lineage(artifact string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lineageLocked(artifact)
}

func (s *Store) lineageLocked(artifact string) []*Record {
	seen := make(map[string]bool)
	var stack []string
	stack = append(stack, s.producers[artifact]...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, s.byID[id].Inputs...)
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Record, len(ids))
	for i, id := range ids {
		out[i] = s.byID[id]
	}
	return out
}

// Report renders the transparency report for an artifact: creator,
// modifications, and the full derivation chain — the §III-b questions in
// one document.
func (s *Store) Report(artifact string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "Transparency report for %q\n", artifact)
	creator, ok := s.creatorLocked(artifact)
	if !ok {
		b.WriteString("  no provenance recorded\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  created by %s via %s (%s) at %s\n",
		creator.Agent, creator.Activity, creator.Source, creator.Time.Format(time.RFC3339))
	for _, m := range s.modifiersLocked(artifact) {
		fmt.Fprintf(&b, "  modified by %s via %s (%s) at %s\n",
			m.Agent, m.Activity, m.Source, m.Time.Format(time.RFC3339))
	}
	b.WriteString("  derivation:\n")
	for _, r := range s.lineageLocked(artifact) {
		fmt.Fprintf(&b, "    [%s] %s by %s (%s) -> %s\n",
			r.ID, r.Activity, r.Agent, r.Source, strings.Join(r.Artifacts, ", "))
	}
	return b.String()
}
