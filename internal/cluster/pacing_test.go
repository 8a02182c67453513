package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/extension"
)

// TestClientPacesOn429 pins the backpressure contract: a 429 with
// Retry-After makes the client pause (jittered around the server's hint)
// and resend the identical batch without consuming a retry attempt, and
// every pause is surfaced through OnPace and the Paced counter.
func TestClientPacesOn429(t *testing.T) {
	var mu sync.Mutex
	rejects := 2
	var bodies []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		var n int
		buf := make([]byte, 1<<20)
		for {
			m, err := r.Body.Read(buf)
			n += m
			if err != nil {
				break
			}
		}
		bodies = append(bodies, n)
		if rejects > 0 {
			rejects--
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded: unsampled request shed (queue_depth)"}`)
			return
		}
		fmt.Fprint(w, `{"accepted":1,"dropped":0,"forwarded":0}`)
	}))
	defer srv.Close()

	var paces []time.Duration
	c, err := NewClient(ClientConfig{
		Targets: []string{strings.TrimPrefix(srv.URL, "http://")},
		Retries: -1, // no failure retries: pacing alone must recover
		OnPace:  func(d time.Duration) { paces = append(paces, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddRecord(extension.Record{UserID: "u", City: "London", ISP: "starlink", At: time.Unix(100, 0)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Flush(); err != nil {
		t.Fatalf("flush should succeed through pacing: %v", err)
	}
	elapsed := time.Since(start)

	st := c.Stats()
	if st.Paced != 2 {
		t.Fatalf("Paced = %d, want 2", st.Paced)
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (pacing must not consume retry attempts)", st.Retries)
	}
	if len(paces) != 2 {
		t.Fatalf("OnPace fired %d times, want 2", len(paces))
	}
	var total time.Duration
	for _, d := range paces {
		// Jittered around the 1s Retry-After hint: uniform in [d/2, 3d/2).
		if d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("pace %v outside the jitter window [500ms, 1.5s)", d)
		}
		total += d
	}
	if elapsed < total {
		t.Fatalf("flush returned in %v, before the %v of pacing it reported", elapsed, total)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 {
		t.Fatalf("server saw %d posts, want 3 (2 shed + 1 accepted)", len(bodies))
	}
	if bodies[0] != bodies[1] || bodies[1] != bodies[2] {
		t.Fatalf("paced resends changed the payload: sizes %v", bodies)
	}
}

// TestClientPaceBudgetExhausts pins the cap: past PaceRetries consecutive
// 429s the send fails (after the configured failure retries) instead of
// pacing forever.
func TestClientPaceBudgetExhausts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	}))
	defer srv.Close()

	paces := 0
	c, err := NewClient(ClientConfig{
		Targets:      []string{strings.TrimPrefix(srv.URL, "http://")},
		Retries:      -1,
		PaceRetries:  1,
		RetryBackoff: time.Millisecond,
		OnPace:       func(time.Duration) { paces++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddRecord(extension.Record{UserID: "u", City: "London", ISP: "starlink", At: time.Unix(100, 0)}); err != nil {
		t.Fatal(err)
	}
	err = c.Flush()
	if err == nil {
		t.Fatal("flush succeeded against a permanently overloaded server")
	}
	if _, ok := collector.IsOverloaded(err); !ok {
		t.Fatalf("exhausted send should surface the overload error, got: %v", err)
	}
	if paces != 1 {
		t.Fatalf("OnPace fired %d times, want exactly PaceRetries=1", paces)
	}
}
