//! Recorders for the traced run, built only from public extension points:
//! a [`TraceSink`] that keeps every event in memory, a [`SeqStore`] that
//! logs each call into the sender's packet store, and a
//! [`CongestionControl`] wrapper that logs each call into a flow's CCA.
//! Each log is later replayed against a fresh instance of its layer
//! (see [`crate::replay`]).

use crate::report::now;
use cca::{AckEvent, BoxCca, CongestionControl, LossEvent};
use netsim::{Network, PktStore, SentPkt, SeqStore, SimConfig};
use simcore::trace::{Event, TraceSink};
use simcore::units::{Rate, Time};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Keeps every traced event in memory. Clones share one buffer.
#[derive(Clone, Default)]
pub struct MemSink(Arc<Mutex<Vec<(Time, Event)>>>);

impl MemSink {
    /// Take the recorded events, leaving the buffer empty.
    pub fn take(&self) -> Vec<(Time, Event)> {
        std::mem::take(&mut *self.0.lock().expect("trace buffer lock"))
    }

    /// `cfg` with this sink attached as its trace.
    pub fn attach(&self, cfg: SimConfig) -> SimConfig {
        let sink = self.clone();
        cfg.with_trace(Arc::new(move || {
            Box::new(sink.clone()) as Box<dyn TraceSink>
        }))
    }
}

impl TraceSink for MemSink {
    fn event(&mut self, at: Time, ev: &Event) {
        self.0
            .lock()
            .expect("trace buffer lock")
            .push((at, ev.clone()));
    }
}

/// One call into a [`SeqStore`], with what it returned.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreCall {
    Insert(u64, SentPkt),
    Get(u64, Option<SentPkt>),
    Remove(u64, Option<SentPkt>),
    IsOutstandingEmpty(bool),
    OutstandingBytes(u64),
    UnresolvedBytes(u64),
    SackRange(u64, u64),
    MaxSacked(Option<u64>),
    AdvanceCum(u64),
    ClearRetxDone,
    /// `collect_holes(limit)` and the entries it appended.
    CollectHoles(u64, Vec<(u64, Time, u64)>),
    MarkHoleRetx(u64),
    /// `collect_below(seq)` and the entries it appended.
    CollectBelow(u64, Vec<(u64, Time, u64)>),
    /// `rto_reset` and the sequences it appended.
    RtoReset(Vec<u64>),
}

type StoreLog = Rc<RefCell<Vec<StoreCall>>>;

thread_local! {
    static STORE_LOGS: RefCell<Vec<StoreLog>> = const { RefCell::new(Vec::new()) };
}

/// A [`PktStore`] that logs every call. Each instance (one per sender)
/// registers its own log on this thread; [`take_store_logs`] collects them.
pub struct RecStore {
    inner: PktStore,
    log: StoreLog,
}

impl Default for RecStore {
    fn default() -> Self {
        let log = StoreLog::default();
        STORE_LOGS.with(|logs| logs.borrow_mut().push(log.clone()));
        RecStore {
            inner: PktStore::default(),
            log,
        }
    }
}

/// The call logs of every [`RecStore`] built on this thread since the last
/// call, in construction (flow) order.
pub fn take_store_logs() -> Vec<Vec<StoreCall>> {
    STORE_LOGS.with(|logs| logs.borrow_mut().drain(..).map(|l| l.take()).collect())
}

impl RecStore {
    fn push(&self, call: StoreCall) {
        self.log.borrow_mut().push(call);
    }
}

impl SeqStore for RecStore {
    fn insert(&mut self, seq: u64, pkt: SentPkt) {
        self.inner.insert(seq, pkt);
        self.push(StoreCall::Insert(seq, pkt));
    }
    fn get(&self, seq: u64) -> Option<SentPkt> {
        let r = self.inner.get(seq);
        self.push(StoreCall::Get(seq, r));
        r
    }
    fn remove(&mut self, seq: u64) -> Option<SentPkt> {
        let r = self.inner.remove(seq);
        self.push(StoreCall::Remove(seq, r));
        r
    }
    fn is_outstanding_empty(&self) -> bool {
        let r = self.inner.is_outstanding_empty();
        self.push(StoreCall::IsOutstandingEmpty(r));
        r
    }
    fn outstanding_bytes(&self) -> u64 {
        let r = self.inner.outstanding_bytes();
        self.push(StoreCall::OutstandingBytes(r));
        r
    }
    fn unresolved_bytes(&self) -> u64 {
        let r = self.inner.unresolved_bytes();
        self.push(StoreCall::UnresolvedBytes(r));
        r
    }
    fn sack_range(&mut self, lo: u64, hi: u64) {
        self.inner.sack_range(lo, hi);
        self.push(StoreCall::SackRange(lo, hi));
    }
    fn max_sacked(&self) -> Option<u64> {
        let r = self.inner.max_sacked();
        self.push(StoreCall::MaxSacked(r));
        r
    }
    fn advance_cum(&mut self, new_cum: u64) {
        self.inner.advance_cum(new_cum);
        self.push(StoreCall::AdvanceCum(new_cum));
    }
    fn clear_retx_done(&mut self) {
        self.inner.clear_retx_done();
        self.push(StoreCall::ClearRetxDone);
    }
    fn collect_holes(&self, limit: u64, out: &mut Vec<(u64, Time, u64)>) {
        let from = out.len();
        self.inner.collect_holes(limit, out);
        // simlint: allow(hot-path-alloc): the recording store runs only in the traced run
        self.push(StoreCall::CollectHoles(limit, out[from..].to_vec()));
    }
    fn mark_hole_retx(&mut self, seq: u64) {
        self.inner.mark_hole_retx(seq);
        self.push(StoreCall::MarkHoleRetx(seq));
    }
    fn collect_below(&self, seq: u64, out: &mut Vec<(u64, Time, u64)>) {
        let from = out.len();
        self.inner.collect_below(seq, out);
        // simlint: allow(hot-path-alloc): the recording store runs only in the traced run
        self.push(StoreCall::CollectBelow(seq, out[from..].to_vec()));
    }
    fn rto_reset(&mut self, out: &mut Vec<u64>) {
        let from = out.len();
        self.inner.rto_reset(out);
        // simlint: allow(hot-path-alloc): the recording store runs only in the traced run
        self.push(StoreCall::RtoReset(out[from..].to_vec()));
    }
}

/// One call into a CCA, with the CCA's outputs right after it.
#[derive(Clone, Copy, Debug)]
pub enum CcaInput {
    Ack(AckEvent),
    Loss(LossEvent),
    Send {
        now: Time,
        bytes: u64,
        in_flight: u64,
    },
}

/// A CCA's outputs after a call: `cwnd` and the pacing rate.
pub type CcaOutputs = (u64, Option<Rate>);

/// One CCA instance's recording: its state when recording began and every
/// call since.
pub struct CcaLog {
    pub initial: BoxCca,
    pub calls: Vec<(CcaInput, CcaOutputs)>,
}

type SharedCcaLog = Arc<Mutex<CcaLog>>;

thread_local! {
    static CCA_LOGS: RefCell<Vec<SharedCcaLog>> = const { RefCell::new(Vec::new()) };
}

/// Wraps a CCA and logs every call. `clone_box` wraps the clone in a new
/// recorder with its own log, so the per-flow copies a workload spawns
/// from its template CCA are recorded too.
pub struct RecCca {
    inner: BoxCca,
    log: SharedCcaLog,
}

impl RecCca {
    /// Start recording `inner` from its current state.
    pub fn wrap(inner: BoxCca) -> BoxCca {
        let log = Arc::new(Mutex::new(CcaLog {
            initial: inner.clone_box(),
            calls: Vec::new(),
        }));
        CCA_LOGS.with(|logs| logs.borrow_mut().push(log.clone()));
        Box::new(RecCca { inner, log })
    }

    fn record(&self, input: CcaInput) {
        let out = (self.inner.cwnd(), self.inner.pacing_rate());
        self.log.lock().expect("cca log").calls.push((input, out));
    }
}

/// Every CCA log registered on this thread since the last call that saw
/// at least one call (snapshots and templates that were never driven are
/// dropped).
pub fn take_cca_logs() -> Vec<CcaLog> {
    let logs = CCA_LOGS.with(|logs| std::mem::take(&mut *logs.borrow_mut()));
    logs.iter()
        .filter_map(|l| {
            let mut log = l.lock().expect("cca log");
            let calls = std::mem::take(&mut log.calls);
            (!calls.is_empty()).then(|| CcaLog {
                initial: log.initial.clone_box(),
                calls,
            })
        })
        .collect()
}

impl CongestionControl for RecCca {
    fn on_ack(&mut self, ev: &AckEvent) {
        self.inner.on_ack(ev);
        self.record(CcaInput::Ack(*ev));
    }
    fn on_loss(&mut self, ev: &LossEvent) {
        self.inner.on_loss(ev);
        self.record(CcaInput::Loss(*ev));
    }
    fn on_send(&mut self, now: Time, bytes: u64, in_flight: u64) {
        self.inner.on_send(now, bytes, in_flight);
        self.record(CcaInput::Send {
            now,
            bytes,
            in_flight,
        });
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn pacing_rate(&self) -> Option<Rate> {
        self.inner.pacing_rate()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn internals(&self, probe: &mut dyn FnMut(&'static str, f64)) {
        self.inner.internals(probe)
    }
    fn clone_box(&self) -> BoxCca {
        RecCca::wrap(self.inner.clone_box())
    }
}

/// `cfg` with every CCA (static flows and the workload template) wrapped
/// in a [`RecCca`].
pub fn wrap_ccas(mut cfg: SimConfig) -> SimConfig {
    for f in &mut cfg.flows {
        let inner = std::mem::replace(&mut f.cca, Box::new(cca::ConstCwnd::ten_packets()));
        f.cca = RecCca::wrap(inner);
    }
    if let Some(w) = &mut cfg.workload {
        let inner = std::mem::replace(&mut w.cca, Box::new(cca::ConstCwnd::ten_packets()));
        w.cca = RecCca::wrap(inner);
    }
    cfg
}

/// Everything the traced run records about one simulation.
pub struct Recording {
    /// Every traced event (link, jitter, receiver and wheel streams).
    pub trace: Vec<(Time, Event)>,
    /// Each sender's packet-store calls, in flow order.
    pub store: Vec<Vec<StoreCall>>,
    /// Each driven CCA's calls.
    pub cca: Vec<CcaLog>,
    /// When the simulation ended.
    pub end: Time,
    /// Host time of the run into the in-memory trace, ns.
    pub traced_ns: u64,
    /// Fingerprints of the traced run and of the run with recorders.
    pub fingerprints: [u64; 2],
}

/// Run `cfg` into an in-memory trace, then again with a recording packet
/// store and recording CCAs.
pub fn record(cfg: &SimConfig) -> Recording {
    let sink = MemSink::default();
    let traced = sink.attach(cfg.clone());
    let t0 = now();
    let r = Network::new(traced).run();
    let traced_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (end, traced_fp) = (r.end, crate::sims::fingerprint(&r));
    drop(r);
    let trace = sink.take();

    take_store_logs();
    take_cca_logs();
    let recorded_fp =
        crate::sims::fingerprint(&Network::<RecStore>::with_store(wrap_ccas(cfg.clone())).run());
    Recording {
        trace,
        store: take_store_logs(),
        cca: take_cca_logs(),
        end,
        traced_ns,
        fingerprints: [traced_fp, recorded_fp],
    }
}
