// The evolution service end to end, in one process: a synthetic dataset is
// packed into a binary store directory, served over the HTTP JSON API
// (exactly what `evorec serve` runs), queried by concurrent clients, and
// grown by committing a new version at runtime — the "versioned datasets
// behind a live query endpoint" shape of published Linked Data spaces.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"evorec"
)

func get(base, path string) string {
	resp, err := http.Get(base + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}

func main() {
	// A four-version synthetic KB, persisted as a binary segment store.
	versions, _, err := evorec.GenerateVersions(evorec.SmallKB(),
		evorec.EvolveConfig{Ops: 80, Locality: 0.8}, 3, 21)
	if err != nil {
		log.Fatal(err)
	}
	dir := filepath.Join(os.TempDir(), "evorec-example-server")
	defer os.RemoveAll(dir)
	if _, err := evorec.SaveStore(dir, versions, evorec.StoreOptions{
		Policy: evorec.StoreHybrid, SnapshotEvery: 2,
	}); err != nil {
		log.Fatal(err)
	}

	// The service registry + HTTP API, on an ephemeral port.
	svc := evorec.NewService(evorec.ServiceConfig{CacheCap: 4})
	if _, err := svc.Open("kb", dir); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, evorec.NewHTTPServerWithConfig(svc, evorec.HTTPServerConfig{})) //nolint:errcheck // torn down with the process
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d versions at %s/v1/datasets\n\n", len(versions.IDs()), base)

	// Concurrent clients with different interests hit the same pair; the
	// service builds the pair's analysis once and shares it.
	interests := []string{"C0001=1,C0002=0.5", "C0010=1", "C0005=0.8,C0001=0.2"}
	var wg sync.WaitGroup
	out := make([]string, len(interests))
	for i, spec := range interests {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			out[i] = get(base, "/v1/datasets/kb/recommend?older=v1&newer=v2&k=2&interests="+spec)
		}(i, spec)
	}
	wg.Wait()
	for i, body := range out {
		fmt.Printf("client %d (interests %s):\n%s\n", i+1, interests[i], body)
	}

	// Commit the next version at runtime: it is persisted into the store
	// directory through the binary append path and immediately queryable.
	last, _ := versions.Get("v4")
	var buf bytes.Buffer
	if err := evorec.WriteNTriples(&buf, last.Graph); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/datasets/kb/versions/v4-live", "application/n-triples", &buf)
	if err != nil {
		log.Fatal(err)
	}
	committed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("committed at runtime (status %d):\n%s\n", resp.StatusCode, committed)

	fmt.Println("delta of the committed pair:")
	fmt.Println(get(base, "/v1/datasets/kb/delta?older=v3&newer=v4-live"))

	fmt.Println("dataset after serving (note context_builds and cache counters):")
	fmt.Println(get(base, "/v1/datasets/kb"))
}
