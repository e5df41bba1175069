//! The serving core: an epoll reactor over the alignment index — the one
//! front end and the one place requests are batched.
//!
//! ## Architecture
//!
//! One reactor thread owns every socket and multiplexes them through the
//! level-triggered [`Poller`]: it accepts,
//! reads into the incremental parser ([`crate::conn`]), answers cheap
//! routes (`/health`, `/stats`, parameter errors) inline, and dispatches
//! `/align` and `/admin/reload` work to a small pool of compute workers
//! over a bounded job queue. Workers never touch sockets or counters: they
//! compute, encode the response bytes, send the job back with its bytes
//! over a channel, and wake the reactor through its self-pipe [`Waker`].
//! The reactor alone owns the telemetry: it counts each job, and stamps
//! its requests' latency, when it queues the job's bytes.
//! Each open connection costs one fd, one parser buffer and one slab
//! slot — no thread, no stack — so the concurrency ceiling is `max_conns`,
//! not a thread count.
//!
//! ## The run the reactor formed is the batch
//!
//! A client that pipelines N `/align` requests lands them in one socket
//! read; the reactor collects the maximal contiguous run into a single
//! job, and the worker resolves the whole run with one
//! [`BatchIndex::query_batch`](crate::index::BatchIndex::query_batch)
//! call — one cache-lock pass, then one kernel sweep per probe over the
//! run's cache misses, started the moment the worker picks the job up.
//! Nothing downstream re-batches or waits for more arrivals, so a lone
//! request costs exactly its own sweep. Responses are encoded in request
//! order, so pipelining is invisible to the client except in throughput
//! (`/stats`' `pipelined_batches` counts the multi-request jobs).
//!
//! At most one job per connection is in flight at a time; further parsed
//! requests queue on the connection (bounded by
//! [`MAX_PIPELINE`](crate::conn::MAX_PIPELINE), which is therefore also
//! the largest sweep; past it the reactor simply stops reading that
//! socket — level triggering re-reports the unread bytes once the
//! pipeline drains).
//!
//! A job runs under `catch_unwind`: one that panics answers `500` for each
//! of its requests in sequence position (shed ones keep their `503`), its
//! worker lives on, and `/stats` counts it in `panics_total`.
//!
//! ## Admission control
//!
//! The reactor tracks `/align` latency, request parsed to response queued,
//! in two rotating histogram windows. When the windowed p99 exceeds
//! `p99_budget_us`, a proportional fraction of incoming align requests —
//! `clamp((p99 − budget) / budget, 0, 1)`, tracked by a deterministic
//! fractional accumulator, no RNG — is answered `503` + `Retry-After`
//! instead of being queued. Shedding at admission keeps the queue short,
//! so compliant clients see bounded latency instead of collapse; the
//! shed decisions are visible as `shed_total.latency` in `/stats`. A full
//! job queue likewise sheds (`shed_total.queue`), as does the
//! `max_conns` ceiling at accept time (`shed_total.conn_limit`) — held
//! against the connections still open once every hang-up the kernel has
//! already queued is handled.
//!
//! ## Shutdown
//!
//! `stop()` flips the flag and wakes the reactor — no sentinel
//! connections. The reactor drains `accept()` to `WouldBlock` (a
//! handshake the kernel completed is a connection we own, even if it
//! still sat in the backlog), closes the listener, performs a final read
//! sweep (requests that raced shutdown are still parsed), then drains:
//! idle keep-alive connections close immediately, connections owing
//! responses stay until their bytes are flushed (bounded by a grace
//! deadline). Only then does the job queue close and the workers join —
//! a request written to a connection the kernel accepted before `stop()`
//! is never dropped unanswered.

use crate::conn::{Conn, ConnEvent};
use crate::index::Probe;
use crate::server::{
    align_response, classify, err_json, reload_response, response_bytes, shed_bytes, stats_json,
    AlignQuery, RouteAction, ServerOptions, Telemetry, EP_ALIGN, EP_RELOAD,
};
use crate::swap::HotSwapIndex;
use openea_runtime::json::Json;
use openea_runtime::os::{Interest, PollEvent, Poller, Waker};
use openea_runtime::timer::MicrosHistogram;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the waker's read end.
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// How long shutdown waits for owed responses before force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// How long a closing connection discards input after its last response
/// before it closes anyway.
const LINGER: Duration = Duration::from_secs(1);
/// Minimum windowed sample count before latency shedding may engage.
const ADMISSION_MIN_SAMPLES: u64 = 16;

/// One unit of compute-worker work for the connection in `slot`.
struct Job {
    slot: usize,
    /// Must match the connection's epoch when the job comes back, or its
    /// bytes are dropped (the slot was closed and possibly reused while the
    /// job was in flight).
    epoch: u64,
    /// The connection closes once the job's bytes are flushed.
    close: bool,
    work: Work,
}

enum Work {
    /// A contiguous run of `/align` requests from one connection.
    Aligns(Vec<AlignItem>),
    /// One `/admin/reload` (artifact loads are far too slow for the event
    /// loop), parsed at `t0`.
    Reload { path: Option<String>, t0: u64 },
}

struct AlignItem {
    q: AlignQuery,
    close: bool,
    /// Arrival stamp (head fully parsed), µs on the reactor's clock.
    t0: u64,
    /// Admission control already decided to shed this one; the worker
    /// emits the 503 in sequence position so responses stay ordered.
    shed: bool,
}

/// A finished job on its way back to the reactor.
struct Done {
    job: Job,
    /// The encoded responses, in request order.
    bytes: Vec<u8>,
    /// The job panicked: `bytes` answer 500 for each of its requests.
    panicked: bool,
}

/// Bounded MPMC job queue (reactor produces, workers consume).
#[derive(Default)]
struct JobQueue {
    q: Mutex<VecDeque<Job>>,
    ready: Condvar,
    closed: AtomicBool,
}

impl JobQueue {
    /// The queue's guard. It is held for one push, pop or length read,
    /// which leave the queue whole, so a poisoned guard is as good as a
    /// clean one.
    fn queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        self.queue().push_back(job);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once closed **and** drained, so
    /// every dispatched job is completed even during shutdown.
    fn pop(&self) -> Option<Job> {
        let mut q = self.queue();
        loop {
            if let Some(j) = q.pop_front() {
                return Some(j);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        self.queue().len()
    }
}

/// State shared between the reactor thread, the workers, and the handle.
struct ReactorShared {
    index: Arc<HotSwapIndex>,
    jobs: JobQueue,
    shutdown: AtomicBool,
    waker: Waker,
    opts: ServerOptions,
}

/// A running reactor: join handles plus the shutdown signal.
pub(crate) struct ReactorHandle {
    shared: Arc<ReactorShared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Graceful shutdown: signal, wake, drain, join. Idempotent.
    pub(crate) fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor has drained: every dispatched job came back and was
        // either delivered or its connection force-closed. Now the queue
        // (already empty) closes and the workers exit.
        self.shared.jobs.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Starts the reactor thread and its compute workers over an
/// already-bound listener.
pub(crate) fn spawn_reactor(
    index: Arc<HotSwapIndex>,
    listener: TcpListener,
    opts: ServerOptions,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(ReactorShared {
        index,
        jobs: JobQueue::default(),
        shutdown: AtomicBool::new(false),
        waker: Waker::new()?,
        opts,
    });

    let poller = Poller::new()?;
    poller.register(&listener, TOKEN_LISTENER, Interest::READ)?;
    poller.register(shared.waker.reader(), TOKEN_WAKER, Interest::READ)?;

    let (done_tx, done) = mpsc::channel();
    let workers = (0..opts.workers.max(1))
        .map(|i| {
            let (sh, done_tx) = (Arc::clone(&shared), done_tx.clone());
            std::thread::Builder::new()
                .name(format!("reactor-worker-{i}"))
                .spawn(move || worker_loop(&sh, &done_tx))
                .expect("spawn reactor worker")
        })
        .collect();

    let sh = Arc::clone(&shared);
    let reactor = std::thread::Builder::new()
        .name("reactor".into())
        .spawn(move || {
            Reactor {
                shared: sh,
                tel: Telemetry::default(),
                done,
                poller,
                listener: Some(listener),
                conns: Vec::new(),
                free: Vec::new(),
                next_epoch: 1,
                shed_acc: 0.0,
                draining: false,
                drain_deadline_us: 0,
                lingering: VecDeque::new(),
                scratch: Vec::new(),
            }
            .run()
        })
        .expect("spawn reactor");

    Ok(ReactorHandle {
        shared,
        reactor: Some(reactor),
        workers,
    })
}

// ---------------------------------------------------------------------------
// Compute workers: they touch the job queue, the index and the channel back
// to the reactor, nothing else.

fn worker_loop(sh: &ReactorShared, done: &Sender<Done>) {
    while let Some(job) = sh.jobs.pop() {
        let run = catch_unwind(AssertUnwindSafe(|| run_job(sh, &job)));
        let panicked = run.is_err();
        let bytes = run.unwrap_or_else(|_| {
            let failed = || (500, err_json("internal error: the job panicked"));
            match &job.work {
                Work::Aligns(items) => encode_aligns(&sh.opts, items, |_| failed()),
                Work::Reload { .. } => {
                    let (status, body) = failed();
                    response_bytes(status, &body, job.close, None)
                }
            }
        });
        // Fails only once the reactor has exited, when no connection waits
        // for these bytes.
        let _ = done.send(Done {
            job,
            bytes,
            panicked,
        });
        sh.waker.wake();
    }
}

/// Runs one job: a run of align requests with one `query_batch` call, or
/// a reload.
fn run_job(sh: &ReactorShared, job: &Job) -> Vec<u8> {
    let items = match &job.work {
        Work::Aligns(items) => items,
        Work::Reload { path, .. } => {
            let (status, body) = reload_response(&sh.index, path.as_deref());
            return response_bytes(status, &body, job.close, None);
        }
    };
    // One `current()` per job: answers, metric, names and generation all
    // come from one coherent index even if a flip lands mid-job.
    let index = sh.index.current();
    let live: Vec<(u32, usize, Option<Probe>)> = items
        .iter()
        .filter(|i| !i.shed)
        .map(|i| (i.q.entity, i.q.k, i.q.probe))
        .collect();
    let mut results = index.query_batch(&live).into_iter();
    encode_aligns(&sh.opts, items, |q| {
        let result = results.next().expect("one result per live query");
        align_response(&index, q, result)
    })
}

/// Encodes a run of align requests' responses in request order: `answer`
/// for each live one and a 503 for each shed one.
fn encode_aligns(
    opts: &ServerOptions,
    items: &[AlignItem],
    mut answer: impl FnMut(&AlignQuery) -> (u16, Json),
) -> Vec<u8> {
    let mut bytes = Vec::new();
    for item in items {
        bytes.extend_from_slice(&if item.shed {
            shed_bytes("latency", retry_after_s(opts), item.close)
        } else {
            let (status, body) = answer(&item.q);
            response_bytes(status, &body, item.close, None)
        });
    }
    bytes
}

/// `Retry-After` seconds hint: one admission window, at least 1s.
fn retry_after_s(opts: &ServerOptions) -> u32 {
    (opts.budget_window.as_secs() as u32).max(1)
}

// ---------------------------------------------------------------------------
// The reactor thread.

struct Reactor {
    shared: Arc<ReactorShared>,
    /// Every counter and histogram `/stats` serves; only this thread
    /// touches them.
    tel: Telemetry,
    /// Finished jobs, sent back by the workers.
    done: Receiver<Done>,
    poller: Poller,
    /// Dropped (closing the socket) when draining starts.
    listener: Option<TcpListener>,
    /// Connection slab; token == slot index.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_epoch: u64,
    /// Fractional-accumulator state for deterministic latency shedding.
    shed_acc: f64,
    draining: bool,
    drain_deadline_us: u64,
    /// Connections that started to linger, `(slot, epoch, deadline_us)`
    /// in deadline order; an entry whose connection closed earlier is
    /// skipped when it expires.
    lingering: VecDeque<(usize, u64, u64)>,
    scratch: Vec<PollEvent>,
}

impl Reactor {
    fn run(mut self) {
        loop {
            let timeout = if self.draining {
                Some(Duration::from_millis(25))
            } else {
                // Until the oldest lingering connection's deadline.
                self.lingering.front().map(|&(_, _, deadline)| {
                    Duration::from_micros(deadline.saturating_sub(self.tel.clock.micros()))
                })
            };
            let mut events = std::mem::take(&mut self.scratch);
            let _ = self.poller.wait(&mut events, timeout);
            // The listener goes last, whatever its place among the events: a
            // connection that closed in this wake has given its slot back
            // before the accept path counts slots against `max_conns`, and
            // no slot changes hands while events for it are still queued.
            let mut accept = false;
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.shared.waker.drain(),
                    TOKEN_LISTENER => accept = true,
                    token => self.conn_ready(token as usize),
                }
            }
            self.scratch = events;
            if accept {
                self.accept_ready();
            }
            self.drain_completions();
            self.expire_lingering();
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining
                && (self.tel.open_conns == 0 || self.tel.clock.micros() >= self.drain_deadline_us)
            {
                break;
            }
        }
        // Grace expired (or everything drained): force-close stragglers.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot);
            }
        }
    }

    // -- accept path --------------------------------------------------------

    fn accept_ready(&mut self) {
        // Drain every pending accept; level triggering re-reports any we
        // miss between waits.
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.tel.accepted_total += 1;
                    let cap = self.shared.opts.max_conns;
                    if cap != 0 && self.tel.open_conns >= cap {
                        self.reap_hangups();
                        if self.tel.open_conns >= cap && !self.evict_lingering() {
                            self.shed_at_accept(stream);
                            continue;
                        }
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let epoch = self.next_epoch;
                    self.next_epoch += 1;
                    if self
                        .poller
                        .register(&stream, slot as u64, Interest::READ)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn::new(stream, epoch));
                    self.tel.open_conns += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// At the ceiling with a connection in hand: handles what the other
    /// connections have pending right now, without waiting. A peer that hung
    /// up before this one connected — while this loop was between two
    /// `accept` calls, say — has a slot to give back, and its hang-up is
    /// already queued; only what is still open after this counts against
    /// `max_conns`. The waker and the listener are level-triggered and stay
    /// queued for the next wait.
    fn reap_hangups(&mut self) {
        let mut events = std::mem::take(&mut self.scratch);
        let _ = self.poller.wait(&mut events, Some(Duration::ZERO));
        for ev in &events {
            if ev.token != TOKEN_WAKER && ev.token != TOKEN_LISTENER {
                self.conn_ready(ev.token as usize);
            }
        }
        self.scratch = events;
    }

    /// Over the connection ceiling: answer 503 from the accept path and
    /// close. Best-effort nonblocking write — a canned response this small
    /// fits a fresh socket's send buffer.
    fn shed_at_accept(&mut self, stream: TcpStream) {
        self.tel.shed_conn_limit += 1;
        let _ = stream.set_nonblocking(true);
        let mut s = stream;
        let _ = s.write(&shed_bytes("conn_limit", 1, true));
    }

    // -- per-connection I/O --------------------------------------------------

    fn conn_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a slot closed earlier this sweep
        };
        if conn.lingering {
            // Shutdown does not wait for a peer that is still sending.
            if conn.discard_input() || self.draining {
                self.close_conn(slot);
            }
            return;
        }
        if !conn.read_closed && !conn.close_after_flush {
            if conn.fill() == ConnEvent::Broken {
                self.close_conn(slot);
                return;
            }
            self.pump_parse(slot);
        }
        self.pump_dispatch(slot);
        self.flush_and_settle(slot);
    }

    /// Pulls every complete request out of the parser and stamps arrival.
    fn pump_parse(&mut self, slot: usize) {
        let now = self.tel.clock.micros();
        let conn = self.conns[slot].as_mut().expect("live slot");
        loop {
            match conn.parser.next_request() {
                Ok(Some(mut req)) => {
                    req.parsed_us = now;
                    conn.pending.push_back(req);
                }
                Ok(None) => return,
                Err(_) => {
                    // Terminal: the stream is desynced. Stop reading; the
                    // typed error response is queued by `pump_dispatch`
                    // once everything already accepted is answered.
                    conn.read_closed = true;
                    return;
                }
            }
        }
    }

    /// Answers cheap routes inline and dispatches at most one compute job.
    fn pump_dispatch(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            if conn.inflight || conn.close_after_flush {
                return;
            }
            let Some(head) = conn.pending.front() else {
                // Fully drained: if the parser failed earlier, now is the
                // ordered place for its terminal response.
                if let Err(e) = conn.parser.next_request() {
                    let body = err_json(&e.to_string());
                    let bytes = response_bytes(e.status(), &body, true, None);
                    conn.push_out(&bytes);
                    conn.close_after_flush = true;
                }
                return;
            };
            match classify(&head.method, &head.path, &head.query) {
                RouteAction::Align(_) => {
                    self.dispatch_aligns(slot);
                    return;
                }
                RouteAction::Reload(path) => {
                    let req = conn.pending.pop_front().expect("head exists");
                    let t0 = req.parsed_us;
                    if req.close {
                        conn.pending.clear();
                        conn.read_closed = true;
                    }
                    conn.inflight = true;
                    self.shared.jobs.push(Job {
                        slot,
                        epoch: conn.epoch,
                        close: req.close,
                        work: Work::Reload { path, t0 },
                    });
                    return;
                }
                RouteAction::Stats => {
                    let req = conn.pending.pop_front().expect("head exists");
                    let body = stats_json(
                        &self.shared.index,
                        &self.tel,
                        self.shared.jobs.depth(),
                        self.shared.opts.p99_budget_us,
                    );
                    self.finish_inline(slot, &req, 200, &body);
                }
                RouteAction::Inline(status, body) => {
                    let req = conn.pending.pop_front().expect("head exists");
                    self.finish_inline(slot, &req, status, &body);
                }
            }
        }
    }

    fn finish_inline(
        &mut self,
        slot: usize,
        req: &crate::conn::HttpRequest,
        status: u16,
        body: &openea_runtime::json::Json,
    ) {
        let now = self.tel.clock.micros();
        let ep = Telemetry::endpoint(&req.path);
        let conn = self.conns[slot].as_mut().expect("live slot");
        conn.push_out(&response_bytes(status, body, req.close, None));
        if req.close {
            conn.pending.clear();
            conn.close_after_flush = true;
        }
        self.tel.record(ep, now.saturating_sub(req.parsed_us));
    }

    /// Collects the maximal contiguous run of `/align` requests at the
    /// head of the pending queue into one job, applying admission control
    /// per request.
    fn dispatch_aligns(&mut self, slot: usize) {
        let queue_full = self.shared.jobs.depth() >= self.shared.opts.queue_cap.max(1);
        let frac = self.admission_frac();
        let retry_s = retry_after_s(&self.shared.opts);
        let mut items: Vec<AlignItem> = Vec::new();
        let mut saw_close = false;
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            let Some(head) = conn.pending.front() else {
                break;
            };
            let RouteAction::Align(q) = classify(&head.method, &head.path, &head.query) else {
                break;
            };
            let req = conn.pending.pop_front().expect("head exists");
            if queue_full {
                // No job outstanding for this connection (dispatch only
                // runs when idle), so inline 503s stay in request order.
                self.tel.shed_queue += 1;
                let conn = self.conns[slot].as_mut().expect("live slot");
                conn.push_out(&shed_bytes("queue", retry_s, req.close));
                if req.close {
                    conn.pending.clear();
                    conn.close_after_flush = true;
                    return;
                }
                continue;
            }
            let shed = if frac > 0.0 {
                self.shed_acc += frac;
                if self.shed_acc >= 1.0 {
                    self.shed_acc -= 1.0;
                    self.tel.shed_latency += 1;
                    true
                } else {
                    false
                }
            } else {
                false
            };
            items.push(AlignItem {
                q,
                close: req.close,
                t0: req.parsed_us,
                shed,
            });
            if req.close {
                saw_close = true;
                break;
            }
        }
        if items.is_empty() {
            return;
        }
        let conn = self.conns[slot].as_mut().expect("live slot");
        if saw_close {
            // The client asked to close; anything pipelined after the
            // close-flagged request is dead on arrival.
            conn.pending.clear();
            conn.read_closed = true;
        }
        conn.inflight = true;
        self.shared.jobs.push(Job {
            slot,
            epoch: conn.epoch,
            close: saw_close,
            work: Work::Aligns(items),
        });
    }

    /// Current shed fraction from the windowed p99 vs the budget;
    /// rotates the observation windows when one has elapsed.
    fn admission_frac(&mut self) -> f64 {
        let budget = self.shared.opts.p99_budget_us;
        if budget == 0 {
            return 0.0;
        }
        let tel = &mut self.tel;
        let now = tel.clock.micros();
        let window_us = (self.shared.opts.budget_window.as_micros() as u64).max(1000);
        if now.saturating_sub(tel.window_start_us) >= window_us {
            tel.window[1] = std::mem::take(&mut tel.window[0]);
            tel.window_start_us = now;
        }
        let mut merged = MicrosHistogram::new();
        merged.merge(&tel.window[0]);
        merged.merge(&tel.window[1]);
        tel.window_p99_us = merged.percentile_us(99.0);
        tel.shed_frac = if merged.count() >= ADMISSION_MIN_SAMPLES && tel.window_p99_us > budget {
            (((tel.window_p99_us - budget) as f64) / (budget as f64)).min(1.0)
        } else {
            0.0
        };
        tel.shed_frac
    }

    // -- completions, flushing, teardown ------------------------------------

    /// Queues each finished job's bytes on its connection, if that is
    /// still the one the job was for, after counting the job either way.
    fn drain_completions(&mut self) {
        while let Ok(Done {
            job,
            bytes,
            panicked,
        }) = self.done.try_recv()
        {
            self.count(&job, panicked);
            let Some(conn) = self.conns.get_mut(job.slot).and_then(Option::as_mut) else {
                continue; // connection closed while the job was in flight
            };
            if conn.epoch != job.epoch {
                continue; // slot was reused; these bytes belong to the dead conn
            }
            conn.inflight = false;
            conn.push_out(&bytes);
            if job.close {
                conn.pending.clear();
                conn.close_after_flush = true;
            }
            self.pump_dispatch(job.slot);
            self.flush_and_settle(job.slot);
        }
    }

    /// Records a finished job as its bytes are queued: each answered
    /// request's latency (an `/align` one feeds the admission window too),
    /// a multi-request run, a panic.
    fn count(&mut self, job: &Job, panicked: bool) {
        let tel = &mut self.tel;
        let now = tel.clock.micros();
        tel.panics_total += u64::from(panicked);
        match &job.work {
            Work::Aligns(items) => {
                let mut live = 0;
                for item in items.iter().filter(|i| !i.shed) {
                    let us = now.saturating_sub(item.t0);
                    tel.record(EP_ALIGN, us);
                    tel.window[0].record(us);
                    live += 1;
                }
                tel.pipelined_batches += u64::from(live > 1);
            }
            Work::Reload { t0, .. } => tel.record(EP_RELOAD, now.saturating_sub(*t0)),
        }
    }

    /// Flushes what the socket will take, then closes or re-arms interest.
    fn flush_and_settle(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.flush_out() == ConnEvent::Broken {
            self.close_conn(slot);
            return;
        }
        let conn = self.conns[slot].as_mut().expect("live slot");
        let flushed = conn.out_pending() == 0;
        if flushed && conn.close_after_flush {
            self.linger(slot);
            return;
        }
        if conn.read_closed && conn.pending.is_empty() && !conn.inflight && conn.out_pending() == 0
        {
            // Peer EOF and nothing owed in either direction. A request
            // head torn by the disconnect can never complete, so it does
            // not count as owed work (unlike `idle()`, which would keep
            // the carcass alive for its unfinishable parse).
            self.close_conn(slot);
            return;
        }
        if self.draining && conn.idle() {
            // Graceful shutdown closes idle keep-alive connections; any
            // connection owing bytes or a completion stays for the grace
            // period.
            self.close_conn(slot);
            return;
        }
        // Stop reading while throttled or done reading; level triggering
        // re-reports buffered bytes when read interest returns. (A peer
        // that full-closes mid-job still raises HUP regardless of the
        // interest mask; the resulting no-op wakeups last only until its
        // completion arrives.)
        let want = Interest {
            readable: !(conn.read_closed || conn.close_after_flush || conn.throttled()),
            writable: !flushed,
        };
        if (want.readable != conn.reg_read || want.writable != conn.reg_write)
            && self.poller.modify(&conn.stream, slot as u64, want).is_ok()
        {
            conn.reg_read = want.readable;
            conn.reg_write = want.writable;
        }
    }

    /// Closes a connection whose last response is flushed the way that
    /// keeps the response readable: the write half is shut at once, input
    /// is discarded until the peer's EOF, [`LINGER_BYTES`] or [`LINGER`],
    /// and only then is the socket closed. Until then it keeps its slot
    /// under `max_conns`, but a new connection that finds the ceiling full
    /// takes the slot of the oldest lingering one ([`Reactor::evict_lingering`]).
    ///
    /// [`LINGER_BYTES`]: crate::conn::LINGER_BYTES
    fn linger(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("live slot");
        // Shutdown waits for no peer, as in `conn_ready`.
        if self.draining || !conn.start_linger() || conn.discard_input() {
            self.close_conn(slot);
            return;
        }
        let want = Interest {
            readable: true,
            writable: false,
        };
        if self.poller.modify(&conn.stream, slot as u64, want).is_err() {
            self.close_conn(slot);
            return;
        }
        (conn.reg_read, conn.reg_write) = (true, false);
        let deadline = self.tel.clock.micros() + LINGER.as_micros() as u64;
        self.lingering.push_back((slot, conn.epoch, deadline));
    }

    /// Closes each lingering connection whose deadline has passed.
    fn expire_lingering(&mut self) {
        let now = self.tel.clock.micros();
        while let Some(&(slot, epoch, deadline)) = self.lingering.front() {
            if deadline > now {
                return;
            }
            self.lingering.pop_front();
            if self.still_lingers(slot, epoch) {
                self.close_conn(slot);
            }
        }
    }

    /// At the ceiling with a connection in hand: closes the oldest lingering
    /// connection, whose last response is already flushed, so that the new
    /// one takes its slot. False when none lingers.
    fn evict_lingering(&mut self) -> bool {
        while let Some((slot, epoch, _)) = self.lingering.pop_front() {
            if self.still_lingers(slot, epoch) {
                self.close_conn(slot);
                return true;
            }
        }
        false
    }

    /// Whether the lingering entry `(slot, epoch)` is still that connection,
    /// not one that closed earlier or a later connection on its slot.
    fn still_lingers(&self, slot: usize, epoch: u64) -> bool {
        self.conns[slot]
            .as_ref()
            .is_some_and(|c| c.epoch == epoch && c.lingering)
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(&conn.stream);
            self.tel.open_conns -= 1;
            self.free.push(slot);
        }
    }

    /// Shutdown observed: take what the kernel already accepted, stop
    /// accepting, final read sweep, close idle.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline_us = self.tel.clock.micros() + DRAIN_GRACE.as_micros() as u64;
        // Completed handshakes still in the backlog would be RST by the
        // drop below, requests and all; accept them so the sweep answers.
        self.accept_ready();
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(&listener);
            // Dropped here: pending SYNs get RST instead of silence.
        }
        // Final sweep: bytes that raced the shutdown signal are still
        // parsed and answered; idle connections close immediately.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.conn_ready(slot);
            }
        }
    }
}
