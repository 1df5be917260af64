package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"upim"
	"upim/internal/prim"
)

// Server connection limits. A client gets readHeaderTimeout to send its
// request headers, so a stalled or malicious connection cannot hold a
// goroutine forever; idle keep-alive connections between a worker's store
// and lease calls are closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// cmdCoordinate serves a result store over HTTP — and, when space flags
// are given, a lease-protocol coordinator over that space — so `upim work
// -connect URL` processes on other machines can drain one exploration:
//
//	upim coordinate -addr :7070 -store ./pfstore -bench VA,BS -scale tiny
//	upim work -connect http://host:7070 -name w0   # on each machine
func cmdCoordinate(c *cli, args []string) int {
	fs := c.fs
	var (
		addr     = fs.String("addr", "localhost:7070", "listen address")
		storeDir = fs.String("store", "", "result store directory to serve (required)")
		bench    = fs.String("bench", "", "comma-separated benchmarks of the coordinated space; empty serves the store only, with no coordinator")
		axesSpec = fs.String("axes", defaultAxes, "design axes of the coordinated space")
		scale    = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		dpus     = fs.Int("dpus", 1, "base DPU count (a dpus axis overrides it)")
		shard    = fs.Int("shard", 0, "points per leased shard (0 = default)")
		ttl      = fs.Duration("ttl", 10*time.Second, "lease time-to-live; workers renewing slower than this lose their shard")
		events   = fs.String("events", "", "append the JSONL coordination events log to this file")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *storeDir == "" {
		return c.fail(2, errors.New("-store is required (the served result store)"))
	}
	sc, err := prim.ParseScale(*scale)
	if err != nil {
		return c.fail(2, err)
	}
	store, err := upim.OpenResultStore(*storeDir)
	if err != nil {
		return c.fail(1, err)
	}

	var handler http.Handler
	var handle *upim.CoordHandle
	if *bench == "" {
		handler = upim.NewResultStoreServer(store)
		c.logf("store %s on %s (store only; add -bench for a coordinator)", *storeDir, *addr)
	} else {
		axes, err := upim.ParseAxes(*axesSpec)
		if err != nil {
			return c.fail(2, err)
		}
		space := upim.NewDesignSpace(strings.Split(*bench, ","), axes...)
		space.Scale = sc
		space.DPUs = *dpus
		ev, closeEvents, err := openEvents(*events)
		if err != nil {
			return c.fail(1, err)
		}
		defer closeEvents()
		handler, handle, err = upim.ServeCoordinator(space, store,
			0, upim.CoordinatorOptions{ShardSize: *shard, TTL: *ttl}, ev)
		if err != nil {
			return c.fail(2, err)
		}
		c.logf("coordinating %d points over store %s on %s", handle.Points(), *storeDir, *addr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// Poll coordination progress; exit once every shard completes (store-only
	// servers run until interrupted).
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var lastLine string
	for {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				return c.fail(1, err)
			}
			return 0
		case <-c.ctx.Done():
			shutdown(srv)
			c.logf("interrupted")
			return 1
		case <-tick.C:
			if handle == nil {
				continue
			}
			st := handle.Status()
			line := fmt.Sprintf("shards %d/%d done, %d leased, %d pending", st.Done, st.Shards, st.Leased, st.Pending)
			if line != lastLine {
				c.logf("%s", line)
				lastLine = line
			}
			if st.AllDone {
				shutdown(srv)
				n, _ := store.Count()
				c.logf("all %d shards done; store %s holds %d points", st.Shards, *storeDir, n)
				return 0
			}
		}
	}
}

func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// cmdWork runs one remote worker process against a coordinator served by
// `upim coordinate`.
func cmdWork(c *cli, args []string) int {
	fs := c.fs
	var (
		connect = fs.String("connect", "", "coordinator base URL, e.g. http://host:7070 (required)")
		name    = fs.String("name", "", "worker name in leases and events (default \"worker\")")
		events  = fs.String("events", "", "append this worker's JSONL events log to a file")
	)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *connect == "" {
		return c.fail(2, errors.New("-connect is required (the coordinator URL)"))
	}
	ev, closeEvents, err := openEvents(*events)
	if err != nil {
		return c.fail(1, err)
	}
	defer closeEvents()
	if err := upim.Work(c.ctx, upim.WorkOptions{Connect: *connect, Name: *name, Events: ev}); err != nil {
		return c.fail(1, err)
	}
	c.logf("all shards done")
	return 0
}
