package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// PprofMux returns a mux exposing the standard net/http/pprof endpoints
// under /debug/pprof/. Serving it is opt-in (serpd's -pprof-addr flag, in
// every role) and on a separate listener, so profiling never shares a
// port with production traffic.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof binds addr and serves PprofMux on it in the background,
// returning the server for shutdown and the address it bound.
func ServePprof(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: PprofMux()}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
