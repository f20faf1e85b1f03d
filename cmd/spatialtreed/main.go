// Command spatialtreed is the network serving daemon: it exposes the
// batched query engines over HTTP/JSON (see internal/server) with an
// adaptive batch scheduler per shard — an idle shard runs a request at
// once, and requests that arrive while a batch runs are dispatched
// together as the next batch, up to -max-batch of them. -max-delay opts
// into a linger instead: a batch waits until its oldest request has
// waited that long or -max-batch fills it. Admission is a bounded queue
// (-queue) that answers 429 under pressure; SIGINT/SIGTERM triggers a
// graceful drain that resolves every in-flight request before exit.
//
// With -tcp-addr the same daemon also serves the length-prefixed
// binary protocol (internal/wire, docs/protocol.md) on raw TCP:
// identical shard routing, admission and drain semantics, shared
// batches with HTTP traffic, far less per-request overhead. The
// StatusTooMany/StatusUnavailable wire statuses are the binary
// counterparts of HTTP 429/503.
//
// Endpoints (all JSON; see internal/server for the wire types):
//
//	POST /v1/trees            register a tree {parents} → {tree_id}
//	POST /v1/query            {tree_id|parents, kind, ...} → result
//	POST /v1/dyn              create a mutable shard → {shard_id}
//	GET  /v1/dyn/{id}         shard epoch + layout config
//	POST /v1/dyn/{id}/mutate  {op: insert|delete, parent|leaf}
//	POST /v1/dyn/{id}/query   query the shard's current tree
//	GET  /metrics             scheduler + engine + cache counters
//	GET  /healthz             liveness (503 while draining)
//
// Usage:
//
//	spatialtreed                              # serve on :8372, in-memory only
//	spatialtreed -addr :9000 -max-batch 32 -max-delay 5ms
//	spatialtreed -preload 4 -preload-n 4096   # seed a 4-tree forest, ids logged
//	spatialtreed -data-dir /var/lib/spatialtree  # durable shards + warm restart
//	spatialtreed -backend sim                 # meter every batch on the simulator
//
// Serving runs on the native goroutine-parallel backend by default;
// -backend sim routes every batch through the spatial-computer
// simulator (exact model Energy/Depth in /metrics, at simulator speed).
// Register/create requests may override the backend per shard, so one
// daemon can meter a tree on sim while serving the rest natively.
//
// With -data-dir, registered trees and mutable shards survive restarts:
// trees persist as their parent arrays (re-registered on boot as a
// fresh registration would be), dyn shards as a snapshot plus a
// mutation WAL replayed on boot. -fsync picks the WAL durability/latency trade-off
// and -compact-after bounds replay work; see docs/persistence.md.
//
// With -peers (plus -advertise and -tcp-addr) the daemon joins a static
// cluster: mutable shards are owned by consistent hash of their tree
// fingerprint across the peer list, non-owners proxy (or, with
// -redirect, answer 421 with the owner's address), and each owner ships
// its shards' snapshots and WAL records to -replicas followers, acking
// mutations only after the followers confirmed. Followed replicas
// persist under <data-dir>/replicas. See docs/cluster.md.
//
//	spatialtreed -tcp-addr :9372 -advertise host1:9372 \
//	    -peers host1:9372,host2:9372,host3:9372 -replicas 1
//
// A quick smoke from a shell:
//
//	curl -s localhost:8372/healthz
//	curl -s -X POST localhost:8372/v1/trees -d '{"parents":[-1,0,0,1]}'
//	curl -s -X POST localhost:8372/v1/query \
//	    -d '{"parents":[-1,0,0,1],"kind":"lca","queries":[{"u":2,"v":3}]}'
//	curl -s localhost:8372/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spatialtree/internal/cluster"
	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
)

func main() {
	var (
		addr     = flag.String("addr", ":8372", "HTTP listen address")
		tcpAddr  = flag.String("tcp-addr", "", "binary-protocol TCP listen address ('' = HTTP only); see docs/protocol.md")
		readHdr  = flag.Duration("read-header-timeout", 10*time.Second, "HTTP request-header read budget (slow-loris guard)")
		idleTO   = flag.Duration("idle-timeout", server.DefaultTCPIdleTimeout, "per-connection idle budget (HTTP keep-alive and binary-protocol frame gap)")
		maxBatch = flag.Int("max-batch", server.DefaultMaxBatch, "scheduler size trigger: flush a shard at this many pending requests")
		maxDelay = flag.Duration("max-delay", 0, "opt-in linger: hold a shard's pending batch until its oldest request waited this long (0 = run at once when the shard is idle)")
		queue    = flag.Int("queue", server.DefaultQueueLimit, "admission limit: concurrent requests beyond this get 429")
		shards   = flag.Int("max-shards", server.DefaultMaxShards, "retained per-tree serving state bound; registrations beyond it get 429")
		curve    = flag.String("curve", "hilbert", "space-filling curve for placements")
		seed     = flag.Uint64("seed", 1, "simulator seed")
		cacheCap = flag.Int("cache-cap", server.DefaultCacheCapacity, "layout cache capacity (placements)")
		epsilon  = flag.Float64("epsilon", 0.2, "default drift budget of mutable shards")
		backend  = flag.String("backend", "native", "default execution backend: native (goroutine-parallel serving) or sim (spatial-computer simulator with exact model-cost metering); register/create requests may override per shard")
		preload  = flag.Int("preload", 0, "register this many random trees at startup (ids logged)")
		preN     = flag.Int("preload-n", 4096, "vertices per preloaded tree")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
		dataDir  = flag.String("data-dir", "", "durable storage directory; registered trees and dyn shards survive restarts ('' = in-memory only)")
		fsyncPol = flag.String("fsync", "always", "WAL fsync policy: always (fsync per mutation) or off (OS page cache)")
		compact  = flag.Int("compact-after", persist.DefaultCompactAfter, "WAL records per dyn shard before compaction into a fresh snapshot")
		peers    = flag.String("peers", "", "comma-separated advertise addresses of every cluster member ('' = single node); requires -tcp-addr and -advertise")
		adv      = flag.String("advertise", "", "this node's advertise address (must appear in -peers); peers dial it for proxying and replication")
		replicas = flag.Int("replicas", server.DefaultReplicas, "follower copies per dyn shard beyond its owner (cluster mode; capped at peers-1)")
		vnodes   = flag.Int("vnodes", server.DefaultVirtualNodes, "consistent-hash virtual nodes per peer (cluster mode)")
		redirect = flag.Bool("redirect", false, "answer non-owned shard requests with a redirect (HTTP 421 / wire status) carrying the owner address, instead of proxying")
	)
	flag.Parse()

	if !exec.Valid(*backend) {
		log.Fatalf("spatialtreed: -backend must be one of %v, got %q", exec.Names(), *backend)
	}
	if err := engine.CheckEpsilon(*epsilon); err != nil {
		log.Fatalf("spatialtreed: -epsilon: %v", err)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *tcpAddr == "" {
			log.Fatalf("spatialtreed: -peers requires -tcp-addr (replication and proxying ride the binary protocol)")
		}
		if *adv == "" {
			log.Fatalf("spatialtreed: -peers requires -advertise (this node's address within the peer list)")
		}
	}

	var store *persist.Store
	if *dataDir != "" {
		var doSync bool
		switch *fsyncPol {
		case "always":
			doSync = true
		case "off":
		default:
			log.Fatalf("spatialtreed: -fsync must be always or off, got %q", *fsyncPol)
		}
		var err error
		store, err = persist.Open(persist.Options{Dir: *dataDir, Fsync: doSync, CompactAfter: *compact})
		if err != nil {
			log.Fatalf("spatialtreed: %v", err)
		}
	}

	srv := server.New(server.Config{
		Scheduler: server.Scheduler{
			MaxBatch: *maxBatch,
			MaxDelay: *maxDelay,
		},
		Limits: server.Limits{
			QueueLimit:    *queue,
			MaxShards:     *shards,
			CacheCapacity: *cacheCap,
		},
		Timeouts: server.Timeouts{
			TCPIdle: *idleTO,
		},
		Durability: server.Durability{
			Store: store,
		},
		Cluster: server.Cluster{
			Self:         *adv,
			Peers:        peerList,
			Replicas:     *replicas,
			VirtualNodes: *vnodes,
			Redirect:     *redirect,
		},
		Curve:   *curve,
		Seed:    *seed,
		Epsilon: *epsilon,
		Backend: *backend,
	})
	if store != nil {
		rs, err := srv.Recover()
		if err != nil {
			log.Fatalf("spatialtreed: recovery: %v", err)
		}
		log.Printf("recovered %d trees and %d dyn shards (%d WAL records replayed) from %s",
			rs.Trees, rs.DynShards, rs.Records, store.Dir())
	}
	var node *cluster.Node
	if len(peerList) > 0 {
		opts := cluster.Options{}
		if *dataDir != "" {
			opts.ReplicaDir = filepath.Join(*dataDir, "replicas")
		}
		var err error
		node, err = cluster.New(srv, opts) // installs itself via srv.SetCluster
		if err != nil {
			log.Fatalf("spatialtreed: %v", err)
		}
		log.Printf("cluster member %s of %v (replicas=%d vnodes=%d redirect=%v)",
			*adv, peerList, *replicas, *vnodes, *redirect)
	}
	for i := 0; i < *preload; i++ {
		t := tree.RandomAttachment(*preN, rng.New(*seed+uint64(i)))
		id, err := srv.RegisterTree(t)
		if err != nil {
			log.Fatalf("spatialtreed: preload tree %d: %v", i, err)
		}
		log.Printf("preloaded tree %d: id=%s n=%d", i, id, t.N())
	}

	// Slow-loris defence: a client must deliver its headers within
	// -read-header-timeout, finish its body within ReadTimeout, and a
	// keep-alive connection idles out after -idle-timeout. The binary
	// listener gets the equivalent guarantees from per-connection
	// deadlines inside ServeBinary (Config.TCPIdleTimeout covers each
	// whole frame read, so trickled frames cannot hold a connection).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHdr,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       *idleTO,
	}
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	var tcpLn net.Listener
	if *tcpAddr != "" {
		var err error
		tcpLn, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Fatalf("spatialtreed: %v", err)
		}
		go func() {
			if err := srv.ServeBinary(tcpLn); !errors.Is(err, net.ErrClosed) {
				errc <- err
			}
		}()
		log.Printf("spatialtreed binary protocol on %s", tcpLn.Addr())
	}
	log.Printf("spatialtreed listening on %s (backend=%s max-batch=%d max-delay=%v queue=%d curve=%s)",
		*addr, *backend, *maxBatch, *maxDelay, *queue, *curve)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("spatialtreed: %v", err)
	case <-ctx.Done():
	}

	log.Printf("spatialtreed draining (budget %v)...", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Drain first — new requests bounce with 503 while in-flight ones
	// resolve through the scheduler — then close the listener.
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("spatialtreed: %v", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("spatialtreed: shutdown: %v", err)
	}
	// Both protocols share the drain above: binary connections answer
	// StatusUnavailable the moment Drain flips the flag, so closing the
	// listener and remaining connections here loses no admitted work.
	if tcpLn != nil {
		srv.CloseBinary()
	}
	// Cluster teardown after the drain: acked mutations finished their
	// follower round-trips before Drain returned.
	if node != nil {
		if err := node.Close(); err != nil {
			log.Printf("spatialtreed: closing cluster: %v", err)
		}
	}
	// Close the store after the drain: every admitted mutation has
	// journaled by now, so this final sync makes the whole session
	// durable even under -fsync=off.
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("spatialtreed: closing store: %v", err)
		}
	}
	m := srv.Metrics()
	fmt.Printf("served: requests=%d batches=%d (%.1f req/batch) size-flushes=%d deadline-flushes=%d idle-flushes=%d rejected=%d\n",
		m.Scheduler.Requests, m.Scheduler.Batches, m.Scheduler.RequestsPerBatch,
		m.Scheduler.SizeFlushes, m.Scheduler.DeadlineFlushes, m.Scheduler.IdleFlushes, m.Server.Rejected)
}
