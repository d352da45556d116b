package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

// kbConfig sizes every generated version at about 2k triples. Pair-build
// cost grows faster than linearly with version size, so the benchmark keeps
// the size fixed and stationary across the chain (see growWeights).
func kbConfig() synth.KBConfig {
	return synth.KBConfig{
		Classes:          40,
		Properties:       30,
		LiteralProps:     8,
		Instances:        420,
		ZipfS:            1.3,
		LinksPerInstance: 3,
	}
}

// Evolution ops per step: about 2% of a version's triples change.
const evolveOps = 25

// growWeights and shrinkWeights are the two halves of a balanced add/delete
// evolution: each step picks the half that pulls the version size back
// toward the first version's, so the chain's size is stationary and a
// pair built late in a run costs what one built early costs.
var (
	growWeights = synth.OpWeights{AddClass: 2, Reparent: 2, AddProperty: 1, RetargetProperty: 2,
		AddInstances: 30, DeleteInstances: 10, AddLinks: 40, Relabel: 4}
	shrinkWeights = synth.OpWeights{DeleteClass: 2, Reparent: 2, RetargetProperty: 2,
		AddInstances: 10, DeleteInstances: 40, AddLinks: 10, Relabel: 4}
)

// inputs is what set-up keeps of the generated chain. It holds no graph:
// the packed versions live in the store and the rest only as commit
// bodies, so the benchmark's own data adds nothing to the heap the
// server's garbage collector paces itself by.
type inputs struct {
	schema      *schema.Schema // of the first version, for profiles
	meanTriples float64        // mean version size, recorded with every result
	bodies      [][]byte       // N-Triples commit bodies by version; nil for packed ones
	arena       *arena         // holds the bodies
}

func versionID(i int) string { return "v" + strconv.Itoa(i+1) }

// genInputs generates n versions of stationary size from the seed. The
// first base go into the returned version store, to be packed; every later
// one is rendered as a commit body and dropped.
func genInputs(seed int64, n, base int) (*inputs, *rdf.VersionStore, error) {
	rng := rand.New(rand.NewSource(seed))
	g, nm, err := synth.Generate(kbConfig(), rng)
	if err != nil {
		return nil, nil, err
	}
	target := g.Len()
	in := &inputs{schema: schema.Extract(g), bodies: make([][]byte, n), arena: new(arena)}
	vs := rdf.NewVersionStore()
	var buf bytes.Buffer
	sum := 0
	for i := 0; i < n; i++ {
		if i > 0 {
			w := growWeights
			if g.Len() > target {
				w = shrinkWeights
			}
			if g, _, err = synth.Evolve(g, synth.EvolveConfig{Ops: evolveOps, Locality: 0.5, Weights: w}, nm, rng); err != nil {
				break
			}
		}
		sum += g.Len()
		if i < base {
			if err = vs.Add(&rdf.Version{ID: versionID(i), Graph: g}); err != nil {
				break
			}
			continue
		}
		buf.Reset()
		if err = rdf.WriteNTriples(&buf, g); err != nil {
			break
		}
		if in.bodies[i], err = in.arena.copy(buf.Bytes()); err != nil {
			break
		}
	}
	if err != nil {
		in.arena.free()
		return nil, nil, err
	}
	in.meanTriples = float64(sum) / float64(n)
	return in, vs, nil
}

// arena is memory outside the Go heap, mapped in chunks, for the commit
// bodies. A few hundred bodies of about 200 KiB each would otherwise
// raise the live heap, and with it the collector's pacing, of the server
// sharing this process.
type arena struct {
	chunks [][]byte
	cur    []byte
}

const arenaChunk = 64 << 20

// copy returns a copy of b in the arena.
func (a *arena) copy(b []byte) ([]byte, error) {
	if len(b) > cap(a.cur)-len(a.cur) {
		m, err := syscall.Mmap(-1, 0, max(len(b), arenaChunk), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping body arena: %w", err)
		}
		a.chunks = append(a.chunks, m)
		a.cur = m[:0]
	}
	n := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[n:len(a.cur):len(a.cur)], nil
}

// free unmaps the arena; no body may be used after.
func (a *arena) free() {
	for _, m := range a.chunks {
		syscall.Munmap(m)
	}
	a.chunks, a.cur = nil, nil
}

// genProfiles builds n user profiles over the first version's schema.
func genProfiles(sc *schema.Schema, n int, rng *rand.Rand) ([]*profile.Profile, error) {
	ps, _, err := synth.GenerateProfiles(sc, synth.ProfileConfig{Users: n, ExtraInterests: 3}, rng)
	return ps, err
}

// interestSpec renders a profile in the HTTP interest grammar
// ("C0001=1,C0002=0.5"), sorted so the same profile gives the same URL.
func interestSpec(p *profile.Profile) string {
	parts := make([]string, 0, len(p.Interests))
	for t, w := range p.Interests {
		parts = append(parts, t.Local()+"="+strconv.FormatFloat(w, 'g', -1, 64))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// userSpec is the "id:interests" form of repeated user/member parameters.
func userSpec(p *profile.Profile) string { return p.ID + ":" + interestSpec(p) }

// parseProfile rebuilds the profile the server parses from a spec, so the
// benchmark's direct calls see exactly what the handler saw.
func parseProfile(p *profile.Profile) *profile.Profile {
	out, err := profile.ParseInterests(p.ID, interestSpec(p))
	if err != nil {
		panic(fmt.Sprintf("profile %s does not round-trip: %v", p.ID, err)) // generator bug
	}
	return out
}

// pair is one (older, newer) version pair.
type pair struct{ older, newer string }

// recommendURL is the recommend query for one user, pair and strategy.
func recommendURL(base string, p pair, u *profile.Profile, strategy string, k int) string {
	q := url.Values{}
	q.Set("older", p.older)
	q.Set("newer", p.newer)
	q.Set("k", strconv.Itoa(k))
	q.Set("strategy", strategy)
	q.Set("user_id", u.ID)
	q.Set("interests", interestSpec(u))
	return base + "/recommend?" + q.Encode()
}
