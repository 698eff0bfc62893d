//! Concurrent ingest property suite: N writer threads hammer disjoint
//! *and* shared tenants through the durable group-commit path while a
//! prober thread reads continuously, then three views of the state
//! must agree — **live ≡ recovered ≡ rebuilt-from-scratch**.
//!
//! What this pins down, at 1/2/4/8 writer threads:
//!
//! * **Equivalence** — after the storm, the live registry's probe
//!   answers and epochs equal (a) a registry recovered from the
//!   durable directory and (b) a fresh in-memory registry re-ingesting
//!   the log's frames in log order. Interleaving across tenants is
//!   schedule-dependent; the *state* each schedule produces is not.
//! * **Epoch monotonicity** — every observation any thread makes of a
//!   tenant's epochs is non-decreasing per module: the seqlock
//!   publication never shows a torn or rewound epoch vector.
//! * **Probes don't block on writers** — the prober makes continuous
//!   progress (epoch snapshots are lock-free; module reads only ever
//!   wait for that module's apply slice, never for an fsync).
//! * **Coalesce accounting** — the lane's `frames_synced == fsyncs +
//!   coalesced` identity holds under arbitrary interleaving, and every
//!   submitted frame is acked durable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use sv_core::safety::{IngestBatch, ProbeRequest};
use sv_durable::{DurableRegistry, Record, TenantDef, LOG_FILE};
use sv_relation::{AttrSet, Tuple};
use sv_serve::{AdmissionLimits, Tenant, TenantConfig, TenantId, TenantRegistry};
use sv_workflow::library::one_one_chain;
use sv_workflow::Workflow;

const CHAIN_WIRES: usize = 4;
const FRAMES_PER_THREAD: usize = 24;
const SHARED: [TenantId; 2] = [TenantId(1), TenantId(2)];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sv-par-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chain_row(wf: &Workflow, bits: u32) -> Tuple {
    let input: Vec<u32> = (0..CHAIN_WIRES).map(|w| (bits >> w) & 1).collect();
    wf.run(&input).expect("chain accepts all boolean inputs")
}

fn epochs_of(t: &Arc<Tenant>) -> Vec<u64> {
    t.epochs().iter().map(|me| me.epoch).collect()
}

fn probe_mix(t: &Arc<Tenant>) -> Vec<ProbeRequest> {
    let modules: Vec<_> = {
        let guard = t.oracles();
        guard.iter().map(|(id, _)| id).collect()
    };
    let mut probes = Vec::new();
    for &m in &modules {
        for word in [0b0u64, 0b1, 0b101, 0b1111] {
            for gamma in [1u128, 2, 8] {
                probes.push(ProbeRequest::new(m, AttrSet::from_word(word), gamma));
            }
        }
    }
    probes
}

/// Asserts that two tenants answer the probe mix identically.
fn assert_same_answers(a: &Arc<Tenant>, b: &Arc<Tenant>, context: &str) {
    let probes = probe_mix(a);
    let out_a = a.oracles().probe_batch(&probes).expect("probes on a");
    let out_b = b.oracles().probe_batch(&probes).expect("probes on b");
    assert_eq!(out_a.len(), out_b.len(), "{context}");
    for (x, y) in out_a.iter().zip(&out_b) {
        assert_eq!(x.module, y.module, "{context}");
        assert_eq!(x.safe, y.safe, "{context}: module {:?}", x.module);
    }
}

fn scenario(threads: usize) {
    let dir = tmp_dir(&format!("t{threads}"));
    let wf = one_one_chain(2, CHAIN_WIRES);
    let reg = Arc::new(DurableRegistry::create(&dir).expect("create"));
    reg.set_commit_window(Duration::from_micros(200));
    let mut tenant_ids: Vec<TenantId> = SHARED.to_vec();
    for t in 0..threads {
        tenant_ids.push(TenantId(100 + t as u64));
    }
    for &tid in &tenant_ids {
        reg.register(tid, TenantConfig::new(&wf)).expect("register");
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The prober: continuous epoch snapshots and probe batches
        // while writers are appending. Asserts per-module epoch
        // monotonicity on every observation and must make progress
        // (probes never wait behind an fsync or another module's
        // apply).
        let prober = {
            let reg = Arc::clone(&reg);
            let stop = &stop;
            let tenant_ids = tenant_ids.clone();
            s.spawn(move || {
                let mut last: HashMap<u64, Vec<u64>> = HashMap::new();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for &tid in &tenant_ids {
                        let t = reg.tenant(tid).expect("registered");
                        let now = epochs_of(&t);
                        if let Some(prev) = last.get(&tid.0) {
                            for (p, n) in prev.iter().zip(&now) {
                                assert!(n >= p, "epoch rewound on tenant {tid:?}");
                            }
                        }
                        last.insert(tid.0, now);
                        let probes = probe_mix(&t);
                        let out = t.oracles().probe_batch(&probes).expect("probe");
                        assert_eq!(out.len(), probes.len());
                    }
                    rounds += 1;
                }
                rounds
            })
        };
        // Writers: each owns one disjoint tenant and shares two more
        // with every other writer. Frames of 1–2 valid/duplicate rows
        // through the full submit + wait_durable path.
        let mut writers = Vec::new();
        for w in 0..threads {
            let reg = Arc::clone(&reg);
            let wf = &wf;
            writers.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (w as u64) << 8);
                let own = TenantId(100 + w as u64);
                for _ in 0..FRAMES_PER_THREAD {
                    let tid = match rng.gen_range(0..4u32) {
                        0 | 1 => own,
                        2 => SHARED[0],
                        _ => SHARED[1],
                    };
                    let nrows = rng.gen_range(1..=2usize);
                    let rows: Vec<Tuple> = (0..nrows)
                        .map(|_| chain_row(wf, rng.gen_range(0..1u32 << CHAIN_WIRES)))
                        .collect();
                    reg.ingest(tid, &rows).expect("valid frames always land");
                }
            }));
        }
        for h in writers {
            h.join().expect("writer");
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = prober.join().expect("prober");
        assert!(rounds > 0, "prober made no progress");
    });

    // Every frame was acked durable, and the coalesce accounting is
    // exact under arbitrary interleaving.
    let stats = reg.lane_stats();
    assert_eq!(stats.frames, (threads * FRAMES_PER_THREAD) as u64);
    assert_eq!(stats.frames_synced, stats.frames, "every frame acked");
    assert_eq!(
        stats.frames_synced,
        stats.fsyncs + stats.coalesced,
        "coalesce identity"
    );

    // Rebuild from scratch: a fresh in-memory registry re-ingesting
    // the log's frames in log order must answer identically — the
    // schedule's interleaving is fully captured by the log.
    let (records, tail, _) = sv_durable::read_log(&dir.join(LOG_FILE)).expect("read log");
    assert!(tail.is_clean());
    let fresh = TenantRegistry::new();
    for &tid in &tenant_ids {
        fresh
            .create(tid, TenantConfig::new(&wf).streaming(true))
            .expect("fresh register");
    }
    for r in &records {
        if let Record::IngestFrame { tenant, rows, .. } = r {
            let t = fresh.get(TenantId(*tenant)).expect("fresh tenant");
            let batch = IngestBatch::new(rows.iter().cloned().map(Tuple::new).collect());
            t.ingest_batch(&batch).expect("logged frames re-apply");
        }
    }
    for &tid in &tenant_ids {
        let live = reg.tenant(tid).expect("live tenant");
        let rebuilt = fresh.get(tid).expect("rebuilt tenant");
        assert_eq!(
            epochs_of(&live),
            epochs_of(&rebuilt),
            "threads {threads}: rebuilt epochs for {tid:?}"
        );
        assert_same_answers(
            &live,
            &rebuilt,
            &format!("threads {threads} rebuilt {tid:?}"),
        );
    }

    // Recover from disk: same state again.
    let live_epochs: Vec<Vec<u64>> = tenant_ids
        .iter()
        .map(|&tid| epochs_of(&reg.tenant(tid).unwrap()))
        .collect();
    let defs: Vec<TenantDef<'_>> = tenant_ids
        .iter()
        .map(|&id| TenantDef {
            id,
            workflow: &wf,
            limits: AdmissionLimits::default(),
        })
        .collect();
    let (rec, report) = DurableRegistry::recover(&dir, &defs).expect("recover");
    assert!(report.tail.is_clean());
    for (i, &tid) in tenant_ids.iter().enumerate() {
        let live = reg.tenant(tid).expect("live tenant");
        let recovered = rec.tenant(tid).expect("recovered tenant");
        assert_eq!(
            epochs_of(&recovered),
            live_epochs[i],
            "threads {threads}: recovered epochs for {tid:?}"
        );
        assert_same_answers(
            &live,
            &recovered,
            &format!("threads {threads} recovered {tid:?}"),
        );
    }
    drop(rec);
    drop(reg);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_writer() {
    scenario(1);
}

#[test]
fn two_writers() {
    scenario(2);
}

#[test]
fn four_writers() {
    scenario(4);
}

#[test]
fn eight_writers() {
    scenario(8);
}
