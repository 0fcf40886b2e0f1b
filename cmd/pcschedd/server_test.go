package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server bounds how long a client may
// take to send its headers and how long an idle keep-alive connection
// lives, so slow or abandoned connections cannot pile up.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
}
