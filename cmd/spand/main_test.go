package main

import (
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spanjoin"
)

// TestHTTPServerBoundsSlowClients: spand's HTTP server bounds how long a
// client may take to send its request header and how long a keep-alive
// connection may sit idle, and a header trickled past the bound loses
// its connection instead of holding it open.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler(), io.Discard)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v", hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("spand's connection limits must be positive")
	}

	// The same server with a short header bound, so the cut-off is quick
	// to observe.
	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: spand\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("unfinished header still holds its connection: %v", err)
	}
}

// TestHTTPServerCapsRequestHeader: spand's HTTP server caps the request
// line and header at maxHeaderBytes. A GET whose q is 1 MiB gets 431
// without reaching the handler, so it never reaches the compiler, while
// the cursor token of a 45 KiB pattern still gets through.
func TestHTTPServerCapsRequestHeader(t *testing.T) {
	var reached atomic.Int32
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
	}), io.Discard)
	if hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("MaxHeaderBytes %d, want %d", hs.MaxHeaderBytes, maxHeaderBytes)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	get := func(q string) int {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + "/eval?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get(strings.Repeat("a", 1<<20)); code != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("a 1 MiB q got %d, want 431", code)
	}
	if n := reached.Load(); n != 0 {
		t.Fatalf("a 1 MiB q reached the handler %d times", n)
	}
	tok := spanjoin.Cursor{Mode: "search", Pattern: strings.Repeat("a", 45<<10)}.Token()
	if code := get(tok); code != http.StatusOK || reached.Load() != 1 {
		t.Fatalf("a %d-byte cursor token got %d, reached the handler %d times; want 200, once",
			len(tok), code, reached.Load())
	}
}
