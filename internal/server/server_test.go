package server_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/server"
	"evorec/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden response bodies")

// galleryVersions hand-builds a tiny two-version art KB whose measure
// evaluations are deterministic, so the JSON bodies can be golden-tested
// byte for byte.
func galleryVersions(t testing.TB) *rdf.VersionStore {
	t.Helper()
	dict := rdf.NewDict()
	g1 := rdf.NewGraphWithDict(dict)
	class := func(g *rdf.Graph, name string) rdf.Term {
		c := rdf.SchemaIRI(name)
		g.Add(rdf.T(c, rdf.RDFType, rdf.RDFSClass))
		return c
	}
	painting := class(g1, "Painting")
	artist := class(g1, "Artist")
	artwork := class(g1, "Artwork")
	g1.Add(rdf.T(painting, rdf.RDFSSubClassOf, artwork))
	creator := rdf.SchemaIRI("creator")
	g1.Add(rdf.T(creator, rdf.RDFSDomain, painting))
	g1.Add(rdf.T(creator, rdf.RDFSRange, artist))
	monalisa := rdf.ResourceIRI("mona_lisa")
	davinci := rdf.ResourceIRI("da_vinci")
	g1.Add(rdf.T(monalisa, rdf.RDFType, painting))
	g1.Add(rdf.T(davinci, rdf.RDFType, artist))
	g1.Add(rdf.T(monalisa, creator, davinci))

	g2 := g1.Clone()
	sculpture := class(g2, "Sculpture")
	g2.Add(rdf.T(sculpture, rdf.RDFSSubClassOf, artwork))
	starry := rdf.ResourceIRI("starry_night")
	vangogh := rdf.ResourceIRI("van_gogh")
	g2.Add(rdf.T(starry, rdf.RDFType, painting))
	g2.Add(rdf.T(vangogh, rdf.RDFType, artist))
	g2.Add(rdf.T(starry, creator, vangogh))
	g2.Remove(rdf.T(monalisa, creator, davinci))

	vs := rdf.NewVersionStore()
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: g1}); err != nil {
		t.Fatal(err)
	}
	if err := vs.Add(&rdf.Version{ID: "v2", Graph: g2}); err != nil {
		t.Fatal(err)
	}
	return vs
}

func newTestServer(t testing.TB) *server.Server {
	t.Helper()
	svc := service.New(service.Config{})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	return server.NewWithConfig(svc, server.Config{})
}

// checkGolden compares the body against testdata/<name>.json, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, body string) {
	t.Helper()
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if body != string(want) {
		t.Errorf("%s body mismatch:\n got: %s\nwant: %s", name, body, want)
	}
}

func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestServerGolden walks the API in a fixed order (cache counters are part
// of the inspect body) and compares every response byte for byte.
func TestServerGolden(t *testing.T) {
	srv := newTestServer(t)
	commitBody := fmt.Sprintf("<%snotre_dame> <%stype> <%sBuilding> .\n",
		rdf.NSResource, "http://www.w3.org/1999/02/22-rdf-syntax-ns#", rdf.NSSchema)
	steps := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
	}{
		{"list", "GET", "/v1/datasets", "", 200},
		{"inspect_fresh", "GET", "/v1/datasets/gallery", "", 200},
		{"delta", "GET", "/v1/datasets/gallery/delta?older=v1&newer=v2", "", 200},
		{"measures", "GET", "/v1/datasets/gallery/measures?older=v1&newer=v2&k=2", "", 200},
		{"recommend", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&k=3&user_id=curator&interests=Painting=1,Artist=0.5", "", 200},
		{"recommend_mmr", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&k=3&strategy=mmr&lambda=0.7&interests=Painting=1", "", 200},
		{"recommend_private", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&k=2&interests=Painting=1&kanon=2&pool=bob:Painting=0.8,Artist=0.3&seed=7", "", 200},
		{"group", "GET", "/v1/datasets/gallery/recommend/group?older=v1&newer=v2&k=3&agg=least_misery&member=alice:Painting=1&member=bob:Artist=1", "", 200},
		{"group_fair", "GET", "/v1/datasets/gallery/recommend/group?older=v1&newer=v2&k=2&fair=1&alpha=0.5&member=alice:Painting=1&member=bob:Artist=1", "", 200},
		{"notify", "GET", "/v1/datasets/gallery/notify?older=v1&newer=v2&threshold=0.01&k=2&user=alice:Painting=1&user=bob:Sculpture=1", "", 200},
		{"commit", "POST", "/v1/datasets/gallery/versions/v3", commitBody, 201},
		{"delta_committed", "GET", "/v1/datasets/gallery/delta?older=v2&newer=v3", "", 200},
		{"create", "POST", "/v1/datasets/scratch", "", 201},
		{"inspect_after", "GET", "/v1/datasets/gallery", "", 200},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			w := do(t, srv, step.method, step.target, step.body)
			if w.Code != step.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, step.wantStatus, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type = %q", ct)
			}
			checkGolden(t, step.name, w.Body.String())
		})
	}
}

// TestServerFeed walks the subscription & feed endpoints end to end:
// subscribe (201) → update (200) → list → commit triggering fan-out → poll
// with cursor ack → unsubscribe, golden-checked byte for byte.
func TestServerFeed(t *testing.T) {
	srv := newTestServer(t)
	commitBody := fmt.Sprintf("<%snotre_dame> <%stype> <%sBuilding> .\n",
		rdf.NSResource, "http://www.w3.org/1999/02/22-rdf-syntax-ns#", rdf.NSSchema)
	steps := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
	}{
		{"subscribe_create", "PUT", "/v1/datasets/gallery/subscribers/curator", `{"interests":"Painting=1,Artist=0.5"}`, 201},
		{"subscribe_update", "PUT", "/v1/datasets/gallery/subscribers/curator", `{"interests":"Sculpture=1"}`, 200},
		{"subscribe_cold", "PUT", "/v1/datasets/gallery/subscribers/janitor", `{"interests":"Broom=1"}`, 201},
		{"subscribers_list", "GET", "/v1/datasets/gallery/subscribers", "", 200},
		{"commit_fanout", "POST", "/v1/datasets/gallery/versions/v3", "", 201},
		{"feed_poll", "GET", "/v1/datasets/gallery/feed/curator", "", 200},
		{"feed_poll_acked", "GET", "/v1/datasets/gallery/feed/curator?after=1", "", 200},
		{"feed_poll_cold", "GET", "/v1/datasets/gallery/feed/janitor", "", 200},
		{"unsubscribe", "DELETE", "/v1/datasets/gallery/subscribers/janitor", "", 200},
		{"inspect_feed", "GET", "/v1/datasets/gallery", "", 200},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			body := step.body
			if step.name == "commit_fanout" {
				body = commitBody
			}
			w := do(t, srv, step.method, step.target, body)
			if w.Code != step.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, step.wantStatus, w.Body.String())
			}
			checkGolden(t, "feed_"+step.name, w.Body.String())
		})
	}
}

// TestServerFeedCursorDrain checks the ack loop over HTTP: paging with
// after=next drains the log exactly once, then stays empty.
func TestServerFeedCursorDrain(t *testing.T) {
	srv := newTestServer(t)
	if w := do(t, srv, "PUT", "/v1/datasets/gallery/subscribers/u", `{"interests":"Painting=1,Artwork=0.5"}`); w.Code != 201 {
		t.Fatalf("subscribe: %d %s", w.Code, w.Body.String())
	}
	commitBody := fmt.Sprintf("<%sthe_scream> <%stype> <%sPainting> .\n",
		rdf.NSResource, "http://www.w3.org/1999/02/22-rdf-syntax-ns#", rdf.NSSchema)
	w := do(t, srv, "POST", "/v1/datasets/gallery/versions/v3", commitBody)
	if w.Code != 201 {
		t.Fatalf("commit: %d %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"feed"`) {
		t.Fatalf("commit body has no feed stats: %s", w.Body.String())
	}
	var drained int
	after := "0"
	for i := 0; i < 10; i++ {
		w := do(t, srv, "GET", "/v1/datasets/gallery/feed/u?limit=1&after="+after, "")
		if w.Code != 200 {
			t.Fatalf("poll: %d %s", w.Code, w.Body.String())
		}
		var resp struct {
			Next    uint64 `json:"next"`
			Entries []struct {
				Cursor uint64 `json:"cursor"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Entries) == 0 {
			break
		}
		drained += len(resp.Entries)
		after = fmt.Sprint(resp.Next)
	}
	if drained == 0 {
		t.Fatal("subscriber interested in Painting drained no entries after a Painting commit")
	}
}

// TestServerErrors checks every error path's status code and JSON shape.
func TestServerErrors(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"unknown_dataset", "GET", "/v1/datasets/nope", "", 404, "unknown dataset"},
		{"unknown_dataset_recommend", "GET", "/v1/datasets/nope/recommend?older=v1&newer=v2&interests=Painting=1", "", 404, "unknown dataset"},
		{"unknown_version", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v9&interests=Painting=1", "", 404, "unknown version"},
		{"unknown_version_delta", "GET", "/v1/datasets/gallery/delta?older=v0&newer=v2", "", 404, "unknown version"},
		{"missing_pair", "GET", "/v1/datasets/gallery/recommend?interests=Painting=1", "", 400, "older and newer"},
		{"missing_interests", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2", "", 400, "interests"},
		{"bad_strategy", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1&strategy=wild", "", 400, "unknown strategy"},
		{"bad_k", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1&k=abc", "", 400, "not an integer"},
		{"bad_weight", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=x", "", 400, "bad weight"},
		{"bad_lambda", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1&lambda=no", "", 400, "not a number"},
		{"kanon_one", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1&kanon=1", "", 400, "kanon must be 0 (off)"},
		{"negative_epsilon", "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1&epsilon=-0.5", "", 400, "epsilon must be"},
		{"group_no_members", "GET", "/v1/datasets/gallery/recommend/group?older=v1&newer=v2", "", 400, "member"},
		{"group_bad_agg", "GET", "/v1/datasets/gallery/recommend/group?older=v1&newer=v2&member=a:Painting=1&agg=tyranny", "", 400, "unknown aggregation"},
		{"group_bad_member", "GET", "/v1/datasets/gallery/recommend/group?older=v1&newer=v2&member=nocolon", "", 400, "id:Class=w"},
		{"notify_no_users", "GET", "/v1/datasets/gallery/notify?older=v1&newer=v2", "", 400, "user"},
		{"notify_bad_threshold", "GET", "/v1/datasets/gallery/notify?older=v1&newer=v2&user=a:Painting=1&threshold=hot", "", 400, "not a number"},
		{"notify_threshold_range", "GET", "/v1/datasets/gallery/notify?older=v1&newer=v2&user=a:Painting=1&threshold=2", "", 400, "threshold"},
		{"subscribe_empty", "PUT", "/v1/datasets/gallery/subscribers/u", `{"interests":""}`, 400, "interests"},
		{"subscribe_bad_json", "PUT", "/v1/datasets/gallery/subscribers/u", `not json`, 400, "decoding subscribe body"},
		{"subscribe_bad_weight", "PUT", "/v1/datasets/gallery/subscribers/u", `{"interests":"Painting=x"}`, 400, "bad weight"},
		{"subscribe_nan_weight", "PUT", "/v1/datasets/gallery/subscribers/u", `{"interests":"Painting=NaN"}`, 400, "invalid weight"},
		{"subscribe_inf_weight", "PUT", "/v1/datasets/gallery/subscribers/u", `{"interests":"Painting=+Inf"}`, 400, "invalid weight"},
		{"subscribe_unknown_dataset", "PUT", "/v1/datasets/nope/subscribers/u", `{"interests":"Painting=1"}`, 404, "unknown dataset"},
		{"unsubscribe_unknown", "DELETE", "/v1/datasets/gallery/subscribers/ghost", "", 404, "unknown subscriber"},
		{"feed_unknown_user", "GET", "/v1/datasets/gallery/feed/ghost", "", 404, "unknown subscriber"},
		{"feed_bad_after", "GET", "/v1/datasets/gallery/feed/ghost?after=x", "", 400, "not a cursor"},
		{"feed_bad_limit", "GET", "/v1/datasets/gallery/feed/ghost?limit=0", "", 400, "limit"},
		{"commit_malformed", "POST", "/v1/datasets/gallery/versions/vX", "this is not n-triples", 400, "parsing version"},
		{"commit_duplicate", "POST", "/v1/datasets/gallery/versions/v1", "", 409, "already exists"},
		{"commit_unknown_dataset", "POST", "/v1/datasets/nope/versions/v9", "", 404, "unknown dataset"},
		{"create_duplicate", "POST", "/v1/datasets/gallery", "", 409, "already registered"},
		{"method_not_allowed", "DELETE", "/v1/datasets/gallery", "", 405, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, srv, c.method, c.target, c.body)
			if w.Code != c.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, c.wantStatus, w.Body.String())
			}
			if c.wantSubstr != "" && !strings.Contains(w.Body.String(), c.wantSubstr) {
				t.Fatalf("body %q does not mention %q", w.Body.String(), c.wantSubstr)
			}
		})
	}
}

// TestServerConcurrentClients drives the HTTP layer itself from parallel
// clients (run with -race): identical queries must return identical bodies.
func TestServerConcurrentClients(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/v1/datasets/gallery/recommend?older=v1&newer=v2&k=3&interests=Painting=1,Artist=0.5"
	first := do(t, srv, "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&k=3&interests=Painting=1,Artist=0.5", "")
	if first.Code != 200 {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	want := first.Body.String()
	errCh := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			var buf strings.Builder
			if _, err := io.Copy(&buf, resp.Body); err != nil {
				errCh <- err
				return
			}
			if buf.String() != want {
				errCh <- fmt.Errorf("concurrent body diverged:\n got: %s\nwant: %s", buf.String(), want)
				return
			}
			errCh <- nil
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
