// Package dist is the simulated multi-GPU cluster every algorithm in this
// repository runs on: a goroutine-per-rank runtime, MPI-style communicator
// groups with the collectives the paper's schedules need, and an analytic
// α–β cost model that turns each operation into simulated seconds — so a
// 64-GPU Table 1 row executes in milliseconds of wall time while reporting
// the communication cost of the real schedule. The full design discussion
// lives in docs/architecture.md; this comment is the contract summary.
//
// # Runtime
//
// dist.New(dist.Config{WorldSize: n}) builds a Cluster of n Workers; Run
// executes one function per rank, each on its own goroutine. A worker that
// errors or panics aborts the whole cluster (peers unwind, Run names the
// rank; a fresh cluster is the recovery). Clocks and traffic statistics
// persist across Runs; ResetClocks opens a new timing window.
//
// # Groups and collectives
//
// Workers build communicators with w.Cluster().Group(ranks...); the rank
// list is the group's canonical order, and groups are cached per list.
// Collectives move pointers, not bytes; reductions sum in the fixed
// association of a binomial tree over the group's virtual positions, so
// results are deterministic and replicas stay bit-identical. Every
// operation is a rendezvous round: members file arrivals without blocking
// and the last arriver computes the whole outcome once. Every collective
// is destination-passing (BroadcastInto, ReduceInto, AllReduceInto,
// AllGatherInto, ReduceScatterInto; Barrier moves no payload): results land
// in caller-supplied buffers with the contract that every cross-member read
// completes before any member returns — which is what lets SUMMA reuse its
// panels (see tensor.Workspace for ownership rules). Steady-state
// collectives allocate nothing.
//
// # Nonblocking collectives
//
// IBroadcastInto, IReduceInto, IAllReduceInto and IReduceScatterInto
// issue without blocking and return a Handle: issue, compute, Wait
// (exactly once). Operations on one group pair up in per-worker issue
// order (mismatches panic), buffers lent to an in-flight operation are
// borrowed until Wait (the workspace panics on Put or ReleaseAll while a
// borrow is outstanding), and results are bit-identical to the blocking
// forms. Simulated time models the
// overlap: Wait advances the clock to max(compute, comm) instead of their
// sum, with each group serialising its own operations like one pipeline
// channel. Cluster.Overlap reports the comm time hidden behind compute;
// HiddenFraction is the analytic counterpart.
//
// # Cost model and phantom mode
//
// CostModel is an α–β machine model (FLOPS, per-message Alpha, separate
// per-byte Betas for intra- and inter-node links); a group is priced by
// the slowest link it spans, with Config.GPUsPerNode mapping ranks to
// nodes. MeluxinaModel is the paper's testbed preset. The per-op charges
// (binomial-tree broadcast/reduce, ring all-reduce/all-gather) are tabled
// in docs/architecture.md, and the exported pricing helpers
// (BroadcastSeconds, AllReduceSeconds, …) expose exactly the formulas the
// runtime charges, which is what the auto-parallelism planner
// (internal/plan) builds its predictions from. Costs depend only on shapes
// and topology — never on data or scheduling — so phantom (shape-only)
// runs advance exactly the clocks of the real execution.
package dist
