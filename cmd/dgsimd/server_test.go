package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// The service listener carries the connection timeouts and no write
// timeout, which would cut off long-lived result streams.
func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts = header %v idle %v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; result streams must not be cut off", hs.WriteTimeout)
	}
}

// A client that never finishes its request headers is disconnected once
// the header timeout passes, instead of holding the connection forever.
func TestPartialHeaderClientDisconnected(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	// Same server, shorter header timeout, so the test does not wait the
	// production 10s.
	const timeout = 200 * time.Millisecond
	hs.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /v1/jobs HTTP/1.1\r\nHost: dgsimd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection by itself; the client-side
	// deadline only bounds a failing test.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection with a partial header still open after 10s")
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("disconnected after %v, before the %v header timeout", elapsed, timeout)
	}
}
