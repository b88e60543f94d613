package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
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
