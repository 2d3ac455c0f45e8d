package artifact

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"vcfr/internal/trace"
)

// Client talks to a peer vcfrd's artifact endpoints
// (GET/PUT /v1/artifacts/{ns}/{key}). Like the Store it fronts, every
// failure degrades to a miss: a down peer slows the fleet, it never breaks
// it.
type Client struct {
	// Base is the peer's base URL, e.g. "http://127.0.0.1:8642".
	Base string
	// HTTP is the client to use; nil gets a dedicated client with a short
	// timeout (artifact fetches sit on the capture path — a hung peer must
	// not stall a cell longer than re-recording would).
	HTTP *http.Client
}

// NewClient returns a client for the peer at base.
func NewClient(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(ns, key string) string {
	return strings.TrimRight(c.Base, "/") + "/v1/artifacts/" + ns + "/" + key
}

// Get fetches ns/key from the peer. Any transport or HTTP failure is a
// miss.
func (c *Client) Get(ns, key string) ([]byte, bool) {
	resp, err := c.httpClient().Get(c.url(ns, key))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put uploads ns/key to the peer.
func (c *Client) Put(ns, key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.url(ns, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("artifact put %s/%s: %s", ns, key, resp.Status)
	}
	return nil
}

// PeerTraceRemote adapts the client to trace.Remote, so a worker's trace
// cache transparently stores captures in / fetches them from the
// coordinator's store.
type PeerTraceRemote struct{ C *Client }

// Fetch implements trace.Remote.
func (r PeerTraceRemote) Fetch(k trace.Key) ([]byte, bool) {
	return r.C.Get(TraceNS, TraceKeyName(k))
}

// Store implements trace.Remote.
func (r PeerTraceRemote) Store(k trace.Key, data []byte) {
	_ = r.C.Put(TraceNS, TraceKeyName(k), data)
}
