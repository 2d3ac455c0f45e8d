package artifact

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/trace"
)

func TestStoreRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(TraceNS, "missing"); ok {
		t.Error("hit on an empty store")
	}
	want := []byte("trace bytes")
	if err := s.Put(TraceNS, "k1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(TraceNS, "k1")
	if !ok || !bytes.Equal(got, want) {
		t.Errorf("Get = %q, %v; want %q", got, ok, want)
	}
	// Namespaces are disjoint.
	if _, ok := s.Get(EnvelopeNS, "k1"); ok {
		t.Error("key leaked across namespaces")
	}
	// Overwrite wins.
	want2 := []byte("newer")
	if err := s.Put(TraceNS, "k1", want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(TraceNS, "k1"); !bytes.Equal(got, want2) {
		t.Errorf("overwrite lost: %q", got)
	}
	gets, hits, puts := s.Stats()
	if gets != 4 || hits != 2 || puts != 2 {
		t.Errorf("stats = %d/%d/%d, want 4 gets, 2 hits, 2 puts", gets, hits, puts)
	}
}

// TestStoreRejectsUnsafeNames pins the path-traversal guard: nothing with a
// separator, a leading dot, or an empty element touches the filesystem.
func TestStoreRejectsUnsafeNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "../etc", "a/b", ".hidden", "a\x00b", "no spaces"} {
		if err := s.Put(bad, "k", []byte("x")); err == nil {
			t.Errorf("namespace %q accepted", bad)
		}
		if err := s.Put(TraceNS, bad, []byte("x")); err == nil {
			t.Errorf("key %q accepted", bad)
		}
		if _, ok := s.Get(TraceNS, bad); ok {
			t.Errorf("key %q readable", bad)
		}
	}
}

// TestStoreConcurrentWriters races writers of the same key; the temp-file +
// rename protocol must leave one intact value, never a torn file.
func TestStoreConcurrentWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("v"), 1<<16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(TraceNS, "contested", payload); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok := s.Get(TraceNS, "contested")
	if !ok || !bytes.Equal(got, payload) {
		t.Errorf("contested value torn: %d bytes, ok=%v", len(got), ok)
	}
}

func TestTraceKeyNameStable(t *testing.T) {
	k := trace.Key{ImageHash: 0xdead, LayoutSeed: -1, MaxInsts: 7, Aux: 3}
	if got, want := TraceKeyName(k), TraceKeyName(k); got != want {
		t.Errorf("unstable: %q vs %q", got, want)
	}
	if TraceKeyName(k) == TraceKeyName(trace.Key{ImageHash: 0xdead, LayoutSeed: -1, MaxInsts: 8, Aux: 3}) {
		t.Error("distinct keys collide")
	}
}

// TestClientAgainstHTTPStore drives the peer client against an HTTP server
// backed by a Store — the exact wire shape vcfrd's /v1/artifacts endpoints
// speak — and checks that transport failures degrade to misses.
func TestClientAgainstHTTPStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts/{ns}/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, ok := s.Get(r.PathValue("ns"), r.PathValue("key"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(data)
	})
	mux.HandleFunc("PUT /v1/artifacts/{ns}/{key}", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Put(r.PathValue("ns"), r.PathValue("key"), buf.Bytes()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClient(srv.URL)
	if _, ok := c.Get(TraceNS, "nope"); ok {
		t.Error("client hit on empty store")
	}
	want := []byte("shared trace")
	if err := c.Put(TraceNS, "t1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(TraceNS, "t1")
	if !ok || !bytes.Equal(got, want) {
		t.Errorf("client Get = %q, %v", got, ok)
	}
	// The peer remote adapter sees the same bytes under the trace key form.
	k := trace.Key{ImageHash: 1, LayoutSeed: 2, MaxInsts: 3}
	PeerTraceRemote{C: c}.Store(k, want)
	if got, ok := (PeerTraceRemote{C: c}).Fetch(k); !ok || !bytes.Equal(got, want) {
		t.Errorf("peer remote roundtrip = %q, %v", got, ok)
	}

	// A dead peer is a miss, not an error the trace cache could trip on.
	srv.Close()
	if _, ok := c.Get(TraceNS, "t1"); ok {
		t.Error("dead peer answered")
	}
	if err := c.Put(TraceNS, "t2", want); err == nil {
		t.Error("Put to a dead peer reported success")
	}
}

// TestTraceRemoteInCache wires the disk store under a trace cache and
// checks the second-level flow: a fresh cache with the same backing store
// serves a previously captured trace without re-capturing (fetch returns
// leader=false, as for any cache hit).
func TestTraceRemoteInCache(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := trace.NewCache(64 << 20)
	c1.SetRemote(TraceRemote{S: s1})

	k := trace.Key{ImageHash: 42, LayoutSeed: 7, MaxInsts: 0}
	captured := 0
	capture := func() (*trace.Trace, error) {
		captured++
		b := trace.NewBuilder(trace.Meta{Workload: "tiny"})
		var res cpu.Result
		res.Halted = true
		return b.Finish(res), nil
	}
	tr, leader, err := c1.Do(context.Background(), k, capture)
	if err != nil || !leader || tr == nil {
		t.Fatalf("first Do = %v, %v, %v; want a led capture", tr, leader, err)
	}
	if captured != 1 {
		t.Fatalf("captured %d times", captured)
	}
	if _, ok := s1.Get(TraceNS, TraceKeyName(k)); !ok {
		t.Fatal("capture not persisted to the artifact store")
	}

	// A brand-new cache over the same store: no capture, not a leader.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := trace.NewCache(64 << 20)
	c2.SetRemote(TraceRemote{S: s2})
	tr2, leader2, err := c2.Do(context.Background(), k, func() (*trace.Trace, error) {
		return nil, fmt.Errorf("must not capture: the store already has this trace")
	})
	if err != nil || leader2 {
		t.Fatalf("second Do = %v, %v; want a remote hit with leader=false", err, leader2)
	}
	if tr2 == nil || tr2.Len() != tr.Len() {
		t.Fatalf("remote-fetched trace = %v", tr2)
	}
}
