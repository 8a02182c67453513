package cluster

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// transportGoroutines counts the goroutines net/http's client transports
// run per open connection.
func transportGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "net/http.(*persistConn)")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestNodeCloseClosesOwnTransport builds a node without an HTTPClient, has
// it hold several idle connections to a peer through concurrent forwards,
// and checks that Close leaves none of the transport's goroutines behind.
func TestNodeCloseClosesOwnTransport(t *testing.T) {
	before := transportGoroutines()
	srvs := make([]*collector.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srv, err := collector.OpenServer(collector.Config{Shards: 1, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	node := newTestNode(t, srvs[0], addrs[0], addrs)
	peer := newTestNode(t, srvs[1], addrs[1], addrs)
	defer peer.Close()

	frame := dataset.MarshalBatch(testRecords(200))
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := node.ForwardFrame(addrs[1], frame, 200, trace.SpanContext{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if open := transportGoroutines(); open <= before {
		t.Fatalf("%d transport goroutines after forwarding, %d before: no connection stayed open", open, before)
	}

	node.Close()
	deadline := time.Now().Add(5 * time.Second)
	for transportGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d transport goroutines remain after Close, %d before the node", transportGoroutines(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
