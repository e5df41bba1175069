//! # openea-serve
//!
//! The serving layer: the first subsystem on the training → artifact →
//! serving path. Trained alignment embeddings become durable, queryable
//! artifacts in three stages:
//!
//! 1. [`snapshot`] — a versioned binary codec for
//!    [`ApproachOutput`](openea_approaches::ApproachOutput) embeddings +
//!    entity-name maps + metric + training trace, checksummed and
//!    byte-stable, plus [`snapshot::SnapshotWriter`]: a
//!    [`CheckpointSink`](openea_approaches::CheckpointSink) that lets any
//!    registry approach emit snapshots from the driver engine's validation
//!    checkpoints.
//! 2. [`index`] — the in-memory alignment index over the streaming
//!    [`TopKMatrix`](openea_align::TopKMatrix) kernels: each submitted
//!    batch of queries is one kernel sweep on the calling thread, behind a
//!    fixed-capacity LRU answer cache keyed by `(entity, k, metric, probe,
//!    generation)`. Served answers are bit-identical to the offline dense
//!    evaluation under the shared tie rule (descending score, lowest index
//!    wins).
//! 3. [`server`] + [`event`] + [`conn`] — the std-only HTTP/1.1 front
//!    end: one epoll reactor multiplexes every connection through an
//!    incremental parser, hands each connection's pipelined `/align` run
//!    to a compute worker as one batch, and sheds with explicit 503
//!    backpressure. Routes: `/align?entity=&k=`, `/health`, `/stats`,
//!    `/admin/reload`.
//! 4. [`swap`] — zero-downtime snapshot hot-swap: the live index is an
//!    `Arc` behind a mutex that each request holds for one `Arc` clone;
//!    `/admin/reload` (or a directory watcher) loads and validates a new
//!    artifact off the serving path, warms its cache from the retiring
//!    index's hottest keys, and flips by replacing the pointer under that
//!    lock. A retired generation is freed by the last request holding it;
//!    generation-keyed answer caches make cross-generation aliasing
//!    impossible.
//!
//! The `openea-serve` binary glues them together:
//!
//! ```text
//! openea-serve model.snap --addr 127.0.0.1:7077 --workers 4
//! curl 'http://127.0.0.1:7077/align?entity=42&k=5'
//! ```

pub mod conn;
pub mod event;
pub mod index;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod swap;

pub use index::{
    AlignmentIndex, Answer, BatchIndex, CacheKey, IndexStats, LruCache, Probe, QueryError,
};
pub use server::{serve_hot, ServerHandle, ServerOptions};
pub use shard::{shard_path, write_sharded};
pub use snapshot::{
    load_artifact, LoadCoverage, LoadedArtifact, Snapshot, SnapshotError, SnapshotWriter,
};
pub use swap::{HotSwapIndex, IndexOptions, ReloadOutcome, SwapStats, WatcherHandle};
