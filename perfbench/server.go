package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/netml/alefb/internal/serve"
)

// liveServer is a serve.Server listening on a loopback port of this
// process.
type liveServer struct {
	srv  *serve.Server
	base string
	done chan error

	once    sync.Once
	stopErr error
}

// startServer builds a server from cfg and serves it on 127.0.0.1.
func startServer(cfg serve.Config) (*liveServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: serve.New(cfg), base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.srv.Serve(l) }()
	return ls, nil
}

// stop drains the server, closes its stores and waits for Serve to
// return. Later calls return the first call's error.
func (ls *liveServer) stop() error {
	ls.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ls.stopErr = ls.srv.Shutdown(ctx)
		if err := <-ls.done; ls.stopErr == nil {
			ls.stopErr = err
		}
	})
	return ls.stopErr
}

// conn is one client connection: an HTTP client whose transport keeps at
// most one TCP connection to the server, so N conns open at most N
// connections.
type conn struct {
	cli *http.Client
}

func newConn() *conn {
	return &conn{cli: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}}
}

func (c *conn) close() { c.cli.CloseIdleConnections() }

// errStatus is a non-200 answer.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and reads the whole response. It returns the body
// of a 200 answer and the round trip, from sending the request to reading
// the last byte of the response.
func (c *conn) do(method, url string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.cli.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return nil, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		if len(out) > 200 {
			out = out[:200]
		}
		return nil, rt, &errStatus{code: resp.StatusCode, body: string(out)}
	}
	return out, rt, nil
}

// call sends a JSON request (nil for a GET) and decodes the answer into
// out.
func (c *conn) call(method, url string, in, out any) (time.Duration, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	raw, rt, err := c.do(method, url, body)
	if err != nil {
		return rt, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return rt, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return rt, nil
}

// status reads the default model's /v1/status counters.
func (ls *liveServer) status(c *conn) (serve.ModelStatus, error) {
	var st serve.ModelStatus
	_, err := c.call(http.MethodGet, ls.base+"/v1/status", nil, &st)
	return st, err
}

// errDeadline reports a wait that ran out of time.
var errDeadline = errors.New("timed out")
