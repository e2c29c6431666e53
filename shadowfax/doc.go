// Package shadowfax is the public API of this Shadowfax reproduction: an
// embeddable, stable surface for running servers and talking to them, built
// over the internal packages that implement the paper (Kulkarni et al.,
// "Achieving High Throughput and Elasticity in a Larger-than-Memory Store",
// PVLDB 2021).
//
// This package is the supported boundary. Programs — including this repo's
// cmd/ binaries and examples/ — build against it exclusively; everything
// under internal/ (the wire format, the client thread, the FASTER store, the
// metadata service) may change without notice.
//
// # Shape of the API
//
// A Cluster bundles the deployment-wide fixtures: the metadata store (the
// paper's ZooKeeper stand-in) and the transport (in-process, or kernel TCP).
// Servers and clients are created against a Cluster:
//
//	cluster := shadowfax.NewCluster()
//	srv, err := shadowfax.NewServer(cluster, "server-1")
//	defer srv.Close()
//
//	cl, err := shadowfax.Dial(cluster)
//	defer cl.Close()
//
// The Client offers synchronous, context-aware methods and asynchronous
// variants returning pooled Futures. Both ride the same view-aware,
// pipelined, batched session machinery of §3.1.1; the synchronous form is a
// Future that is waited on immediately:
//
//	err := cl.Set(ctx, []byte("k"), []byte("v"))
//	v, err := cl.Get(ctx, []byte("k"))
//
//	futs := make([]*shadowfax.Future, 0, 128)
//	for i := 0; i < 128; i++ {
//		futs = append(futs, cl.SetAsync(key(i), val(i)))
//	}
//	err := cl.Drain(ctx) // or Wait on each future individually
//
// Errors are typed: ErrNotFound, ErrNotOwner, ErrSessionBroken, ErrClosed,
// ErrRejected and ErrInternal compose with errors.Is / errors.As.
//
// Control-plane operations — Checkpoint, Compact, Migrate, Stats — live on
// Admin, not on the data-plane Client; each runs as an RPC on its own
// connection, mirroring the paper's Migrate() RPC model (§3.3):
//
//	admin := shadowfax.NewAdmin(cluster)
//	info, err := admin.Checkpoint(ctx, "server-1")
//
// Out-of-process servers are adopted into a fresh Cluster with
// Cluster.Discover, which performs the Stats handshake and registers the
// server's identity, address and ownership view in the local metadata cache.
package shadowfax
