package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Client drives one daemon over HTTP. Each timed call reads the whole
// response body inside the timed section and returns it as bytes;
// parsing and comparison happen later, outside any measurement.
type Client struct {
	base string
	hc   *http.Client
}

func NewClient(addr string, conns int) *Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &Client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// Close drops idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Result is one timed request.
type Result struct {
	Status  int
	Body    []byte
	Header  http.Header
	Elapsed time.Duration
	Err     error
}

// OK reports a transport-level success with status 200.
func (r Result) OK() bool { return r.Err == nil && r.Status == http.StatusOK }

func (r Result) String() string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", r.Status, strings.TrimSpace(string(r.Body)))
}

// Do sends one request and times it from send to the last body byte.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) Result {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return Result{Err: err}
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return Result{Err: err, Elapsed: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	elapsed := time.Since(t0)
	resp.Body.Close()
	return Result{Status: resp.StatusCode, Body: b, Header: resp.Header, Elapsed: elapsed, Err: err}
}

func (c *Client) Query(ctx context.Context, body []byte) Result {
	return c.Do(ctx, http.MethodPost, "/query", body)
}

func (c *Client) Insert(ctx context.Context, body []byte) Result {
	return c.Do(ctx, http.MethodPost, "/insert", body)
}

// Metrics scrapes GET /metrics.
func (c *Client) Metrics(ctx context.Context) (Prom, error) {
	r := c.Do(ctx, http.MethodGet, "/metrics", nil)
	if !r.OK() {
		return nil, fmt.Errorf("GET /metrics: %s", r)
	}
	return ParseProm(bytes.NewReader(r.Body))
}

// directBody turns a registry request body into its "direct": true
// twin (and back, with on=false).
func directBody(body []byte, on bool) []byte {
	s := strings.Replace(string(body), `,"direct":true`, "", 1)
	if on {
		s = strings.TrimSuffix(s, "}") + `,"direct":true}`
	}
	return []byte(s)
}
