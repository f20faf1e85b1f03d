package analysis

// LockOrder enforces the repo's lock order, now three levels deep.
//
// Routing-class locks (server.Server.mu, engine.Pool.mu — the locks
// that gate shard lookup) admit nothing beneath them: while one is
// held, acquiring any other lock — directly or through a callee — is
// the PR 3 deadlock class: /metrics once held the routing lock across
// per-shard stat locks while a slow mutation held a stat lock and
// waited for routing. The fix pattern the analyzer pins: copy what you
// need under the routing lock, release it, then touch shards.
//
// Cluster-class locks (the PR 8 replication pipeline locks —
// cluster.shard.pipe, cluster.shard.mu) are the opposite extreme:
// they are sanctioned to block on network and disk, which is exactly
// why nothing may be held when one is taken. A goroutine that holds
// any other lock and then waits for a cluster lock is transitively
// waiting on a peer's round trip; the cluster tier's rule is
// cluster → (routing | anything else), never the reverse.

import "go/ast"

const (
	routingClass = "routing"
	clusterClass = "cluster"
)

var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "acquiring another lock while holding a routing-class lock " +
		"(//spatialvet:lockclass routing) inverts the shard/routing lock order; " +
		"acquiring a cluster-class lock (//spatialvet:lockclass cluster) while " +
		"holding any lock nests a network-blocking lock inside it",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) error {
	funcDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		walkLockState(pass.Prog, pass.Pkg, decl, func(ev lockEvent) {
			routing := ""
			for _, h := range ev.held {
				if h.class == routingClass {
					routing = objectString(h.obj)
					break
				}
			}
			if routing != "" {
				if ev.acquired != nil {
					pass.Reportf(ev.call.Pos(),
						"%s acquired while holding routing-class lock %s",
						objectString(ev.acquired.obj), routing)
					return
				}
				fn := calleeOf(pass.Pkg, ev.call)
				if s := pass.Prog.summaryOf(fn); s != nil && s.acquires != "" {
					pass.Reportf(ev.call.Pos(),
						"call to %s (acquires %s) while holding routing-class lock %s",
						objectString(fn), s.acquires, routing)
					return
				}
			}
			// Cluster-class locks must be outermost: they block on peer
			// round trips, so anything already held would wait on the
			// network through them.
			if len(ev.held) == 0 {
				return
			}
			outer := objectString(ev.held[len(ev.held)-1].obj)
			if ev.acquired != nil {
				if ev.acquired.class == clusterClass {
					pass.Reportf(ev.call.Pos(),
						"cluster-class lock %s acquired while holding %s (cluster locks block on the network and must be outermost)",
						objectString(ev.acquired.obj), outer)
				}
				return
			}
			fn := calleeOf(pass.Pkg, ev.call)
			if s := pass.Prog.summaryOf(fn); s != nil && s.acquiresCluster != "" {
				pass.Reportf(ev.call.Pos(),
					"call to %s (acquires cluster-class %s) while holding %s",
					objectString(fn), s.acquiresCluster, outer)
			}
		})
	})
	return nil
}
