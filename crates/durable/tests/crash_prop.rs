//! Crash-fault property suite: the durable log + snapshot + replay
//! machinery reaches **exactly** the state of the uninterrupted run, at
//! every possible crash point.
//!
//! The method: run a random ingest schedule one frame at a time
//! (frames of 1–3 rows, submitted through the **pipelined** group
//! commit path so one fsync covers several frames), recording after
//! each frame a *checkpoint* — the log's byte length plus every
//! tenant's expected ledger length and relation epochs (captured from
//! the live tenant, so compaction bumps are included). Durable state
//! at any moment is (snapshot ∪ valid log prefix), so:
//!
//! * **Truncation sweep** — for *every* byte position `c` of the final
//!   log (record boundaries *and* mid-record, which with multi-row
//!   frame records means cuts through the middle of coalesced
//!   batches), recovery from the truncated image must reproduce the
//!   checkpoint of the longest record prefix that survives, joined
//!   with the snapshot's anchor — a torn frame rolls back **whole**,
//!   never row by row.
//! * **Corruption sweep** — flipping any bit of any record must come
//!   back as a typed [`LogTail::Corrupt`]/[`LogTail::Torn`] (never a
//!   panic, never a silently wrong state), with recovery landing on
//!   the checkpoint of the surviving prefix.
//! * **Equivalence** — a recovered tenant's probe answers must equal a
//!   registry rebuilt from scratch by re-ingesting the expected ledger,
//!   and both must equal the row-at-a-time reference semantics
//!   ([`NaiveOracle`]) over each module's projection of the expected
//!   ledger, which the recovered module's rows must equal too.
//!
//! Schedules include valid rows, duplicate rows (applied, no epoch
//! bump), FD-violating rows (which reject their **whole frame** before
//! it reaches the log — frame-atomic ingest), snapshots at random
//! points, and compactions (which rewrite the log and strictly advance
//! every epoch). Rows of the wrong arity, sent through a durable
//! server, are refused the same way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sv_core::safety::{IngestBatch, NaiveOracle, ProbeRequest, SafetyOracle};
use sv_core::wire::{Request, Response, ServeFault};
use sv_core::StandaloneModule;
use sv_durable::{DurableRegistry, LogTail, TenantDef, LOG_FILE, SNAPSHOT_FILE};
use sv_relation::{AttrSet, Relation, Tuple};
use sv_serve::{AdmissionLimits, Server, Tenant, TenantConfig, TenantId, TenantRegistry};
use sv_workflow::library::{fig1_workflow, one_one_chain};
use sv_workflow::Workflow;

const CHAIN_WIRES: usize = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sv-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The two workflows under test: a 2-module boolean chain and the
/// paper's Figure-1 workflow.
fn workflows() -> (Workflow, Workflow) {
    (one_one_chain(2, CHAIN_WIRES), fig1_workflow())
}

fn chain_row(wf: &Workflow, bits: u32) -> Tuple {
    let input: Vec<u32> = (0..CHAIN_WIRES).map(|w| (bits >> w) & 1).collect();
    wf.run(&input).expect("chain accepts all boolean inputs")
}

fn fig1_row(wf: &Workflow, bits: u32) -> Tuple {
    wf.run(&[bits & 1, (bits >> 1) & 1])
        .expect("fig1 accepts boolean inputs")
}

/// Expected state of one tenant at a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ExpectedTenant {
    ledger_len: usize,
    epochs: Vec<u64>,
}

/// A durable checkpoint: everything a crash at `log_bytes` (or later,
/// before the next record) must recover to.
#[derive(Clone, Debug)]
struct Checkpoint {
    log_bytes: u64,
    tenants: Vec<ExpectedTenant>, // indexed like `TENANTS`
}

const TENANTS: [TenantId; 2] = [TenantId(11), TenantId(22)];

fn epochs_of(t: &Arc<Tenant>) -> Vec<u64> {
    t.epochs().iter().map(|me| me.epoch).collect()
}

fn defs<'a>(chain: &'a Workflow, fig1: &'a Workflow) -> Vec<TenantDef<'a>> {
    vec![
        TenantDef {
            id: TENANTS[0],
            workflow: chain,
            limits: AdmissionLimits::default(),
        },
        TenantDef {
            id: TENANTS[1],
            workflow: fig1,
            limits: AdmissionLimits::default(),
        },
    ]
}

/// A probe mix spanning both tenants' modules: visible-set words and Γ
/// values chosen to straddle safe/unsafe boundaries.
fn probe_mix(t: &Arc<Tenant>) -> Vec<ProbeRequest> {
    let modules: Vec<_> = {
        let guard = t.oracles();
        guard.iter().map(|(id, _)| id).collect()
    };
    let mut probes = Vec::new();
    for &m in &modules {
        for word in [0b0u64, 0b1, 0b11, 0b101, 0b1110, 0b11111] {
            for gamma in [1u128, 2, 4, 8] {
                probes.push(ProbeRequest::new(m, AttrSet::from_word(word), gamma));
            }
        }
    }
    probes
}

/// Rebuilds the expected state from scratch (fresh in-memory registry,
/// re-ingesting the expected ledger prefix) and asserts the recovered
/// registry matches it: same epochs as the live run recorded, same
/// probe answers as the rebuild, and reference-equal privacy levels.
fn assert_state_matches(
    rec: &DurableRegistry,
    expected: &[ExpectedTenant],
    ledgers: &[Vec<Tuple>],
    chain: &Workflow,
    fig1: &Workflow,
    check_reference: bool,
    context: &str,
) {
    let fresh = TenantRegistry::new();
    for (i, &tid) in TENANTS.iter().enumerate() {
        let wf = if i == 0 { chain } else { fig1 };
        let ft = fresh
            .create(tid, TenantConfig::new(wf).streaming(true))
            .expect("fresh registration");
        for row in &ledgers[i][..expected[i].ledger_len] {
            ft.ingest_batch(&IngestBatch::from_rows(std::slice::from_ref(row)))
                .expect("expected ledger rows re-apply cleanly");
        }
        let rt = rec.tenant(tid).expect("recovered tenant");
        assert_eq!(
            rec.ledger_len(tid),
            Some(expected[i].ledger_len),
            "{context}: tenant {tid:?} ledger length"
        );
        assert_eq!(
            epochs_of(&rt),
            expected[i].epochs,
            "{context}: tenant {tid:?} epochs"
        );
        // Probe answers are a pure function of module rows: recovered
        // and rebuilt-from-scratch must agree on every safe/unsafe bit.
        let probes = probe_mix(&rt);
        let rec_out = rt.oracles().probe_batch(&probes).expect("recovered probes");
        let fresh_out = ft.oracles().probe_batch(&probes).expect("fresh probes");
        assert_eq!(rec_out.len(), fresh_out.len());
        for (a, b) in rec_out.iter().zip(&fresh_out) {
            assert_eq!(a.module, b.module, "{context}");
            assert_eq!(
                a.safe, b.safe,
                "{context}: probe divergence on module {:?}",
                a.module
            );
        }
        if check_reference {
            // Reference semantics: the row-at-a-time NaiveOracle over
            // the module's projection of the expected ledger answers
            // identically, and the recovered rows are exactly those.
            let sent = &ledgers[i][..expected[i].ledger_len];
            let guard = rt.oracles();
            for (mid, oracle) in guard.iter() {
                let m = oracle.module();
                let attrs = wf.module(mid).expect("tenant module").attr_set();
                let projected = sent.iter().map(|t| t.project(&attrs)).collect();
                let rows = Relation::from_rows(m.schema().clone(), projected).expect("ledger rows");
                assert_eq!(m.relation(), rows, "{context}: rows of module {mid:?}");
                let naive = NaiveOracle::new(
                    StandaloneModule::new(rows, m.inputs().clone(), m.outputs().clone())
                        .expect("ledger projections are functions"),
                );
                for word in [0b0u64, 0b1, 0b11, 0b101, 0b1110] {
                    let v = AttrSet::from_word(word);
                    assert_eq!(
                        oracle.privacy_level(&v),
                        naive.privacy_level(&v),
                        "{context}: reference divergence on module {mid:?}, V={word:#b}"
                    );
                }
            }
        }
    }
}

/// One live run: random ingest frames of 1–3 rows (valid, duplicate,
/// FD-violating — an FD row rejects its whole frame before logging)
/// across two tenants, with a snapshot at a random point. Frames go
/// through the **pipelined** group-commit path: `submit` immediately,
/// `wait_durable` only at random points and at the end, so a single
/// fsync covers a coalesced batch of frames — the crash sweeps then
/// cut through the middle of those batches. Returns the per-frame
/// checkpoints, the snapshot's checkpoint index (0 = no snapshot /
/// empty anchor), and the per-tenant full ledgers.
fn run_schedule(
    dir: &Path,
    seed: u64,
    frames: usize,
    snapshot_at: Option<usize>,
) -> (Vec<Checkpoint>, usize, Vec<Vec<Tuple>>) {
    let (chain, fig1) = workflows();
    let reg = DurableRegistry::create(dir).expect("create durable dir");
    for def in defs(&chain, &fig1) {
        reg.register(def.id, TenantConfig::new(def.workflow).limits(def.limits))
            .expect("register");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ledgers: Vec<Vec<Tuple>> = vec![Vec::new(), Vec::new()];
    let mut checkpoints = vec![Checkpoint {
        log_bytes: 0,
        tenants: TENANTS
            .iter()
            .map(|&tid| ExpectedTenant {
                ledger_len: 0,
                epochs: epochs_of(&reg.tenant(tid).unwrap()),
            })
            .collect(),
    }];
    let mut snap_idx = 0usize;
    let mut unsynced_seq = 0u64;
    for frame in 0..frames {
        if snapshot_at == Some(frame) {
            // Snapshot anchors must not outrun durability.
            reg.wait_durable(unsynced_seq)
                .expect("sync before snapshot");
            reg.snapshot().expect("snapshot");
            snap_idx = checkpoints.len() - 1;
        }
        let ti = rng.gen_range(0..2usize);
        let tid = TENANTS[ti];
        let nrows = rng.gen_range(1..=3usize);
        let rows: Vec<Tuple> = (0..nrows)
            .map(|_| {
                let kind = rng.gen_range(0..10u32);
                if kind < 7 || ledgers[ti].is_empty() {
                    // Valid (possibly duplicate) row.
                    if ti == 0 {
                        chain_row(&chain, rng.gen_range(0..1u32 << CHAIN_WIRES))
                    } else {
                        fig1_row(&fig1, rng.gen_range(0..4u32))
                    }
                } else if kind < 9 {
                    // Exact duplicate of an applied row: applies, adds
                    // nothing.
                    ledgers[ti][rng.gen_range(0..ledgers[ti].len())].clone()
                } else {
                    // FD violation: an applied row with one non-input
                    // value flipped contradicts the recorded execution
                    // — and sinks the whole frame.
                    let mut vals = ledgers[ti][rng.gen_range(0..ledgers[ti].len())]
                        .values()
                        .to_vec();
                    let flip = rng.gen_range(CHAIN_WIRES..vals.len());
                    vals[flip] ^= 1;
                    Tuple::new(vals)
                }
            })
            .collect();
        match reg.submit(tid, &IngestBatch::new(rows.clone())) {
            Ok(outcome) => {
                ledgers[ti].extend(rows);
                unsynced_seq = outcome.log_seq;
            }
            Err(sv_serve::BatchIngestError::Rejected(_)) => {}
            Err(e) => panic!("unexpected durable failure: {e}"),
        }
        // Group commit: roughly every third frame leads a sync that
        // covers everything submitted since the last one.
        if rng.gen_range(0..3u32) == 0 {
            reg.wait_durable(unsynced_seq).expect("group sync");
        }
        checkpoints.push(Checkpoint {
            log_bytes: reg.log_bytes(),
            tenants: TENANTS
                .iter()
                .enumerate()
                .map(|(i, &t)| ExpectedTenant {
                    ledger_len: ledgers[i].len(),
                    epochs: epochs_of(&reg.tenant(t).unwrap()),
                })
                .collect(),
        });
    }
    reg.wait_durable(unsynced_seq).expect("final sync");
    (checkpoints, snap_idx, ledgers)
}

/// The checkpoint a crash at byte `cut` of the log recovers to: the
/// longest record prefix at or below the cut, joined with the
/// snapshot anchor (durable state is snapshot ∪ log prefix).
fn expected_at_cut(checkpoints: &[Checkpoint], snap_idx: usize, cut: u64) -> &Checkpoint {
    let prefix_idx = checkpoints
        .iter()
        .rposition(|c| c.log_bytes <= cut)
        .expect("checkpoint 0 has log_bytes 0");
    &checkpoints[prefix_idx.max(snap_idx)]
}

/// Recover from a damaged copy of the durable dir and hand back the
/// registry + report.
fn recover_copy(
    src: &Path,
    dst: &Path,
    log_image: &[u8],
    chain: &Workflow,
    fig1: &Workflow,
) -> (DurableRegistry, sv_durable::RecoveryReport) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    std::fs::write(dst.join(LOG_FILE), log_image).unwrap();
    let snap = src.join(SNAPSHOT_FILE);
    if snap.exists() {
        std::fs::copy(&snap, dst.join(SNAPSHOT_FILE)).unwrap();
    }
    DurableRegistry::recover(dst, &defs(chain, fig1)).expect("recovery is total")
}

#[test]
fn truncation_at_every_byte_recovers_the_surviving_prefix() {
    let (chain, fig1) = workflows();
    for (seed, snapshot_at) in [(1u64, None), (2, Some(7)), (3, Some(0))] {
        let dir = tmp_dir(&format!("trunc-{seed}"));
        let (checkpoints, snap_idx, ledgers) = run_schedule(&dir, seed, 14, snapshot_at);
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        assert_eq!(checkpoints.last().unwrap().log_bytes, log.len() as u64);
        let work = tmp_dir(&format!("trunc-work-{seed}"));
        // Every byte position: record boundaries AND mid-record.
        for cut in 0..=log.len() {
            let (rec, report) = recover_copy(&dir, &work, &log[..cut], &chain, &fig1);
            let expected = expected_at_cut(&checkpoints, snap_idx, cut as u64);
            let boundary = checkpoints.iter().any(|c| c.log_bytes == cut as u64);
            assert_eq!(
                report.tail.is_clean(),
                boundary,
                "cut {cut}: tail {:?}",
                report.tail
            );
            // Full equivalence is checked at a sample of cuts (it
            // rebuilds registries); ledger/epoch state at every cut.
            let deep = cut == log.len() || cut % 97 == 0;
            if deep {
                assert_state_matches(
                    &rec,
                    &expected.tenants,
                    &ledgers,
                    &chain,
                    &fig1,
                    cut == log.len(),
                    &format!("seed {seed} cut {cut}"),
                );
            } else {
                for (i, &tid) in TENANTS.iter().enumerate() {
                    assert_eq!(
                        rec.ledger_len(tid),
                        Some(expected.tenants[i].ledger_len),
                        "seed {seed} cut {cut}"
                    );
                    assert_eq!(
                        epochs_of(&rec.tenant(tid).unwrap()),
                        expected.tenants[i].epochs,
                        "seed {seed} cut {cut}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
}

#[test]
fn bit_flips_are_typed_faults_and_recover_the_surviving_prefix() {
    let (chain, fig1) = workflows();
    let dir = tmp_dir("flip");
    let (checkpoints, snap_idx, ledgers) = run_schedule(&dir, 42, 10, Some(4));
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let work = tmp_dir("flip-work");
    let mut rng = StdRng::seed_from_u64(7);
    // Every byte, one random bit each (the full 8× sweep runs at the
    // unit level over raw scans; here each flip pays a full recovery).
    for byte in 0..log.len() {
        let bit = rng.gen_range(0..8u32);
        let mut damaged = log.clone();
        damaged[byte] ^= 1 << bit;
        // The independent scanner tells us how much survives.
        let (_, tail, valid_len) = sv_durable::log::scan(&damaged);
        assert!(
            !tail.is_clean(),
            "flip at byte {byte} bit {bit} went undetected"
        );
        let (rec, report) = recover_copy(&dir, &work, &damaged, &chain, &fig1);
        assert!(matches!(
            report.tail,
            LogTail::Torn { .. } | LogTail::Corrupt { .. }
        ));
        let expected = expected_at_cut(&checkpoints, snap_idx, valid_len);
        for (i, &tid) in TENANTS.iter().enumerate() {
            assert_eq!(
                rec.ledger_len(tid),
                Some(expected.tenants[i].ledger_len),
                "flip {byte}.{bit}"
            );
            assert_eq!(
                epochs_of(&rec.tenant(tid).unwrap()),
                expected.tenants[i].epochs,
                "flip {byte}.{bit}"
            );
        }
        let _ = ledgers; // full equivalence covered by the truncation sweep
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn compaction_crash_points_recover_exactly() {
    let (chain, fig1) = workflows();
    for seed in [5u64, 6] {
        let dir = tmp_dir(&format!("compact-{seed}"));
        // Phase 1: random schedule, then compact tenant 0 (rewrites the
        // log, snapshots, bumps every epoch), then more ingest.
        let (_, _, mut ledgers) = run_schedule(&dir, seed, 12, None);
        let reg = {
            let (reg, report) =
                DurableRegistry::recover(&dir, &defs(&chain, &fig1)).expect("reload");
            assert!(report.tail.is_clean());
            reg
        };
        reg.compact(TENANTS[0]).expect("compact");
        // Checkpoint stream restarts on the rewritten log: the old
        // byte offsets are gone with the old log image.
        let mut checkpoints = vec![Checkpoint {
            log_bytes: reg.log_bytes(),
            tenants: TENANTS
                .iter()
                .enumerate()
                .map(|(i, &t)| ExpectedTenant {
                    ledger_len: ledgers[i].len(),
                    epochs: epochs_of(&reg.tenant(t).unwrap()),
                })
                .collect(),
        }];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..6 {
            let ti = rng.gen_range(0..2usize);
            let row = if ti == 0 {
                chain_row(&chain, rng.gen_range(0..1u32 << CHAIN_WIRES))
            } else {
                fig1_row(&fig1, rng.gen_range(0..4u32))
            };
            if reg.ingest(TENANTS[ti], std::slice::from_ref(&row)).is_ok() {
                ledgers[ti].push(row);
            }
            checkpoints.push(Checkpoint {
                log_bytes: reg.log_bytes(),
                tenants: TENANTS
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| ExpectedTenant {
                        ledger_len: ledgers[i].len(),
                        epochs: epochs_of(&reg.tenant(t).unwrap()),
                    })
                    .collect(),
            });
        }
        drop(reg);
        // The post-compaction log is the durable artifact; crash it at
        // every byte. The snapshot (written by compact) anchors
        // everything up to the compaction point.
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let base = checkpoints[0].log_bytes;
        let work = tmp_dir(&format!("compact-work-{seed}"));
        for cut in 0..=log.len() {
            // Bytes below the post-compaction base hold records the
            // snapshot already covers (other-tenant prefix rows kept by
            // the rewrite): cutting inside them recovers the anchor.
            let (rec, _report) = recover_copy(&dir, &work, &log[..cut], &chain, &fig1);
            let expected = if (cut as u64) < base {
                &checkpoints[0]
            } else {
                expected_at_cut(&checkpoints, 0, cut as u64)
            };
            let deep = cut == log.len() || cut % 61 == 0;
            if deep {
                assert_state_matches(
                    &rec,
                    &expected.tenants,
                    &ledgers,
                    &chain,
                    &fig1,
                    cut == log.len(),
                    &format!("compact seed {seed} cut {cut}"),
                );
            } else {
                for (i, &tid) in TENANTS.iter().enumerate() {
                    assert_eq!(
                        rec.ledger_len(tid),
                        Some(expected.tenants[i].ledger_len),
                        "compact seed {seed} cut {cut}"
                    );
                    assert_eq!(
                        epochs_of(&rec.tenant(tid).unwrap()),
                        expected.tenants[i].epochs,
                        "compact seed {seed} cut {cut}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
}

#[test]
fn random_schedules_with_snapshots_recover_bit_for_bit() {
    let (chain, fig1) = workflows();
    for seed in 100..108u64 {
        let dir = tmp_dir(&format!("sched-{seed}"));
        let snapshot_at = if seed % 2 == 0 {
            Some((seed as usize) % 12)
        } else {
            None
        };
        let (checkpoints, snap_idx, ledgers) = run_schedule(&dir, seed, 16, snapshot_at);
        let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let work = tmp_dir(&format!("sched-work-{seed}"));
        // Crash exactly at each record boundary (the per-byte sweep is
        // the dedicated test above); full-state equivalence each time.
        for (idx, cp) in checkpoints.iter().enumerate() {
            let cut = cp.log_bytes as usize;
            let (rec, report) = recover_copy(&dir, &work, &log[..cut], &chain, &fig1);
            assert!(report.tail.is_clean(), "seed {seed} boundary {idx}");
            let expected = expected_at_cut(&checkpoints, snap_idx, cp.log_bytes);
            assert_state_matches(
                &rec,
                &expected.tenants,
                &ledgers,
                &chain,
                &fig1,
                idx == checkpoints.len() - 1,
                &format!("seed {seed} boundary {idx}"),
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
    }
}

#[test]
fn wrong_arity_frames_are_rejected_before_the_log() {
    let (chain, fig1) = workflows();
    let dir = tmp_dir("arity");
    let reg = Arc::new(DurableRegistry::create(&dir).expect("create durable dir"));
    for def in defs(&chain, &fig1) {
        reg.register(def.id, TenantConfig::new(def.workflow).limits(def.limits))
            .expect("register");
    }
    let server = Server::with_ingest_sink(Arc::clone(reg.registry()), reg.clone());
    let ingest = |rows: Vec<Vec<u32>>| {
        let request = Request::Ingest {
            tenant: TENANTS[0].0,
            rows,
        };
        Response::decode(&server.handle_frame(&request.encode())).expect("typed answer")
    };
    let valid = chain_row(&chain, 0b0101).values().to_vec();
    let short = valid[..valid.len() - 1].to_vec();
    let long = [valid.clone(), vec![0]].concat();
    // A short row, a long row, and a frame mixing a valid row with a
    // long one: each is refused whole, naming its row, and never logged.
    for (rows, bad) in [
        (vec![short], 0),
        (vec![long.clone()], 0),
        (vec![valid.clone(), long], 1),
    ] {
        match ingest(rows) {
            Response::Error(ServeFault::Rejected { applied: 0, detail }) => {
                assert!(detail.contains(&format!("row {bad} rejected")), "{detail}");
            }
            other => panic!("expected a rejection naming row {bad}, got {other:?}"),
        }
        assert_eq!(reg.last_seq(), 0, "a rejected frame is never logged");
    }
    // Later frames are acked, and recovery replays every one of them
    // from a clean log.
    for (seq, bits) in [(1u64, 0b0101), (2, 0b1010)] {
        match ingest(vec![chain_row(&chain, bits).values().to_vec()]) {
            Response::Receipt(receipt) => assert_eq!(receipt.durable_seq, seq),
            other => panic!("expected a receipt, got {other:?}"),
        }
    }
    drop(server);
    drop(reg);
    let (rec, report) = DurableRegistry::recover(&dir, &defs(&chain, &fig1)).expect("recover");
    assert_eq!(report.tail, LogTail::Clean);
    assert_eq!((report.records_replayed, report.rows_applied), (2, 2));
    assert_eq!(rec.ledger_len(TENANTS[0]), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}
