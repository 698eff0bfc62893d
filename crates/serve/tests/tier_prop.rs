//! Serving-tier property suite: the wire changes *nothing*.
//!
//! The contract under test: a probe served through the framed protocol
//! (loopback or socket) answers exactly like a direct
//! `WorkflowOracles::probe_batch` call against the same relation state
//! — under concurrency, under interleaved ingest, and across every
//! fault path. Concretely:
//!
//! * **Epoch-indexed equivalence** — with ingest racing 1/2/4/8 client
//!   threads, every served outcome must equal the direct answer *at the
//!   epoch the server stamped on it* (single-module tenant, so the
//!   epoch fully determines relation state).
//! * **Backpressure** — admission overflow surfaces as a typed `Busy`
//!   through the wire, with no tenant state touched.
//! * **Stale-epoch atomicity** — one stale probe fails its whole batch
//!   before any oracle work happens (`total_calls` unchanged).
//! * **Socket ≡ loopback** — the Unix-socket transport serves the same
//!   bytes the loopback does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sv_core::safety::{IngestBatch, ProbeRequest, WorkflowOracles};
use sv_core::wire::BusyReason;
use sv_relation::{AttrSet, Tuple};
use sv_serve::{
    AdmissionLimits, Client, LoopbackTransport, ServeError, Server, TenantConfig, TenantId,
    TenantRegistry,
};
use sv_workflow::library::one_one_chain;
use sv_workflow::{ModuleId, Workflow};

const WIRES: usize = 3;
const TENANT: TenantId = TenantId(7);

/// Every input of the K-wire chain, as executed provenance rows.
/// Each distinct row adds exactly one relation row, so ingesting
/// `rows[..e]` puts the single module at epoch `e`.
fn all_rows(wf: &Workflow) -> Vec<Tuple> {
    (0..1u32 << WIRES)
        .map(|bits| {
            let input: Vec<u32> = (0..WIRES).map(|w| (bits >> w) & 1).collect();
            wf.run(&input).expect("chain accepts all boolean inputs")
        })
        .collect()
}

/// A fixed probe mix: a spread of visible sets and Γ values.
fn probe_mix() -> Vec<ProbeRequest> {
    let mut probes = Vec::new();
    for word in [0b000011u64, 0b001100, 0b110000, 0b010101, 0b111111, 0] {
        for gamma in [1u128, 2, 4, 8] {
            probes.push(ProbeRequest::new(
                ModuleId(0),
                AttrSet::from_word(word),
                gamma,
            ));
        }
    }
    probes
}

/// The ground truth: `expected[e][p]` = direct `probe_batch` answer for
/// probe `p` after ingesting the first `e` rows.
fn reference_table(wf: &Workflow, rows: &[Tuple], probes: &[ProbeRequest]) -> Vec<Vec<bool>> {
    let oracles = WorkflowOracles::for_workflow_streaming(wf).unwrap();
    let mut table = Vec::with_capacity(rows.len() + 1);
    for e in 0..=rows.len() {
        if e > 0 {
            let frame = IngestBatch::from_rows(&rows[e - 1..e]);
            assert_eq!(oracles.ingest_batch(&frame).unwrap(), 1);
        }
        let outcomes = oracles.probe_batch(probes).unwrap();
        assert!(outcomes.iter().all(|o| o.epoch == e as u64));
        table.push(outcomes.into_iter().map(|o| o.safe).collect());
    }
    table
}

fn serve_equivalence_under_ingest(client_threads: usize) {
    let wf = one_one_chain(1, WIRES);
    let rows = all_rows(&wf);
    let probes = probe_mix();
    let expected = reference_table(&wf, &rows, &probes);

    let registry = Arc::new(TenantRegistry::new());
    registry
        .create(TENANT, TenantConfig::new(&wf).streaming(true))
        .unwrap();
    let transport = LoopbackTransport::new(Arc::new(Server::new(registry)));
    let done = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..client_threads {
            let transport = &transport;
            let probes = &probes;
            let expected = &expected;
            let done = &done;
            scope.spawn(move || {
                let mut client = Client::connect(transport).unwrap();
                let mut last_epoch = 0u64;
                // Rotate through batch sizes so frames of different
                // shapes race the ingest writer.
                let mut start = t % probes.len();
                while done.load(Ordering::Acquire) == 0 {
                    let len = (1 + start % 5).min(probes.len() - start);
                    let batch = &probes[start..start + len];
                    let outcomes = client.probe(TENANT, batch).unwrap();
                    assert_eq!(outcomes.len(), batch.len());
                    for (i, outcome) in outcomes.iter().enumerate() {
                        // The server stamps the epoch it answered at;
                        // the answer must be the direct one for that
                        // epoch, and epochs never run backwards.
                        assert!(outcome.epoch >= last_epoch, "epoch regressed");
                        last_epoch = outcome.epoch;
                        assert_eq!(
                            outcome.safe,
                            expected[outcome.epoch as usize][start + i],
                            "served answer diverged from direct probe_batch \
                             (thread {t}, probe {}, epoch {})",
                            start + i,
                            outcome.epoch
                        );
                    }
                    start = (start + len) % probes.len();
                }
            });
        }
        // The ingest side: land every row through the wire, one frame
        // per row, while the probe threads hammer the same tenant.
        let mut ingest = Client::connect(&transport).unwrap();
        for row in &rows {
            let reply = ingest.ingest(TENANT, &[row.values().to_vec()]).unwrap();
            assert_eq!(reply.added, 1);
        }
        // Let the probers observe the final epoch before stopping.
        let mut settle = Client::connect(&transport).unwrap();
        let final_epoch = rows.len() as u64;
        loop {
            let outcomes = settle.probe(TENANT, &probes[..1]).unwrap();
            if outcomes[0].epoch == final_epoch {
                break;
            }
        }
        done.store(1, Ordering::Release);
    });
}

#[test]
fn loopback_matches_direct_1_thread() {
    serve_equivalence_under_ingest(1);
}

#[test]
fn loopback_matches_direct_2_threads() {
    serve_equivalence_under_ingest(2);
}

#[test]
fn loopback_matches_direct_4_threads() {
    serve_equivalence_under_ingest(4);
}

#[test]
fn loopback_matches_direct_8_threads() {
    serve_equivalence_under_ingest(8);
}

#[test]
fn busy_surfaces_through_the_wire_without_touching_state() {
    let wf = one_one_chain(1, WIRES);
    let registry = Arc::new(TenantRegistry::new());
    let tenant = registry
        .create(
            TENANT,
            TenantConfig::new(&wf)
                .streaming(true)
                .limits(AdmissionLimits {
                    max_batch_requests: 2,
                    max_inflight_requests: 2,
                    ..AdmissionLimits::default()
                }),
        )
        .unwrap();
    let transport = LoopbackTransport::new(Arc::new(Server::new(registry)));
    let mut client = Client::connect(&transport).unwrap();

    // Per-frame overflow: three probes against a two-probe bound.
    let probes = probe_mix();
    let err = client.probe(TENANT, &probes[..3]).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Busy(BusyReason::BatchRequests { got: 3, limit: 2 })
        ),
        "got {err}"
    );

    // In-flight overflow: saturate the in-flight budget directly (as a
    // stalled frame would), then probe through the wire.
    let permit = tenant.try_admit(2, 0).expect("budget fits exactly");
    let err = client.probe(TENANT, &probes[..1]).unwrap_err();
    assert!(
        matches!(err, ServeError::Busy(BusyReason::InflightRequests { .. })),
        "got {err}"
    );
    drop(permit);

    // Both wire rejections were counted, and no probe work happened.
    let stats = tenant.stats();
    assert_eq!(stats.busy_rejections, 2);
    assert_eq!(stats.probe_frames, 0);
    assert_eq!(stats.probes_served, 0);
    assert_eq!(tenant.oracles().total_calls(), 0);

    // And the tenant still serves once capacity frees up.
    assert_eq!(client.probe(TENANT, &probes[..2]).unwrap().len(), 2);
}

#[test]
fn stale_epoch_fails_the_whole_batch_atomically() {
    let wf = one_one_chain(1, WIRES);
    let rows = all_rows(&wf);
    let registry = Arc::new(TenantRegistry::new());
    let tenant = registry
        .create(TENANT, TenantConfig::new(&wf).streaming(true))
        .unwrap();
    let transport = LoopbackTransport::new(Arc::new(Server::new(registry)));
    let mut client = Client::connect(&transport).unwrap();

    // Move the tenant to epoch 2: one epoch step per ingest frame
    // (frames apply atomically), so two frames of one row each.
    client.ingest(TENANT, &[rows[0].values().to_vec()]).unwrap();
    client.ingest(TENANT, &[rows[1].values().to_vec()]).unwrap();
    let epochs = client.epochs(TENANT).unwrap();
    assert_eq!(epochs[0].epoch, 2);

    // A batch of valid probes with one stale-epoch straggler: the
    // *whole* batch is rejected before any oracle work.
    let calls_before = tenant.oracles().total_calls();
    let batch = vec![
        ProbeRequest::new(ModuleId(0), AttrSet::from_word(0b11), 2).at_epoch(2),
        ProbeRequest::new(ModuleId(0), AttrSet::from_word(0b1100), 2),
        ProbeRequest::new(ModuleId(0), AttrSet::from_word(0b110000), 2).at_epoch(1),
    ];
    let err = client.probe(TENANT, &batch).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Fault(sv_core::wire::ServeFault::StaleEpoch {
                module: 0,
                expected: 1,
                actual: 2,
            })
        ),
        "got {err}"
    );
    assert_eq!(
        tenant.oracles().total_calls(),
        calls_before,
        "a rejected batch must not touch the oracles"
    );
    assert_eq!(tenant.stats().probe_frames, 0);

    // The recovery loop the protocol prescribes: re-read epochs, retry
    // with the current one.
    let epoch = client.epochs(TENANT).unwrap()[0].epoch;
    let retried: Vec<ProbeRequest> = batch.into_iter().map(|p| p.at_epoch(epoch)).collect();
    assert_eq!(client.probe(TENANT, &retried).unwrap().len(), 3);
}

#[cfg(unix)]
#[test]
fn socket_transport_matches_loopback() {
    use sv_serve::{SocketServer, SocketTransport};

    let wf = one_one_chain(1, WIRES);
    let rows = all_rows(&wf);
    let probes = probe_mix();

    let registry = Arc::new(TenantRegistry::new());
    registry
        .create(TENANT, TenantConfig::new(&wf).streaming(true))
        .unwrap();
    let server = Arc::new(Server::new(Arc::clone(&registry)));
    let loopback = LoopbackTransport::new(Arc::clone(&server));
    let path = std::env::temp_dir().join(format!("sv-serve-prop-{}.sock", std::process::id()));
    let mut socket_server = SocketServer::bind(Arc::clone(&server), &path, 2).unwrap();
    let socket = SocketTransport::new(socket_server.path());

    let mut over_socket = Client::connect(&socket).unwrap();
    let mut over_loopback = Client::connect(&loopback).unwrap();

    // Ingest over the socket, then compare every probe answer across
    // both transports at every epoch along the way.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            over_socket
                .ingest(TENANT, &[row.values().to_vec()])
                .unwrap()
                .added,
            1
        );
        assert_eq!(over_socket.epochs(TENANT).unwrap()[0].epoch, (i + 1) as u64);
        let a = over_socket.probe(TENANT, &probes).unwrap();
        let b = over_loopback.probe(TENANT, &probes).unwrap();
        assert_eq!(a, b, "socket and loopback diverged at epoch {}", i + 1);
    }

    // Faults travel the socket identically too.
    let stale = [ProbeRequest::new(ModuleId(0), AttrSet::from_word(1), 2).at_epoch(0)];
    let err = over_socket.probe(TENANT, &stale).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Fault(sv_core::wire::ServeFault::StaleEpoch { .. })
    ));
    let err = over_socket.probe(TenantId(999), &probes[..1]).unwrap_err();
    assert!(matches!(
        err,
        ServeError::Fault(sv_core::wire::ServeFault::UnknownTenant { tenant: 999 })
    ));

    drop(over_socket);
    socket_server.shutdown();
    assert!(!socket_server.path().exists(), "socket file cleaned up");
}

/// Restart story: a socket server draining and a **fresh** server over a
/// crash-recovered registry must answer exactly like the server that
/// went down. Ingest runs write-ahead through `sv-durable`; shutdown is
/// drain-and-join; recovery is snapshot + log replay.
#[cfg(unix)]
#[test]
fn restarted_server_over_recovered_registry_answers_identically() {
    use sv_durable::{DurableRegistry, TenantDef};
    use sv_serve::{SocketServer, SocketTransport};

    let wf = one_one_chain(1, WIRES);
    let rows = all_rows(&wf);
    let probes = probe_mix();
    let dir = std::env::temp_dir().join(format!("sv-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── First life: durable registry behind a socket server. ──
    let durable = Arc::new(DurableRegistry::create(&dir).unwrap());
    durable.register(TENANT, TenantConfig::new(&wf)).unwrap();
    let server = Arc::new(Server::with_ingest_sink(
        Arc::clone(durable.registry()),
        Arc::clone(&durable) as _,
    ));
    let path = dir.join("first.sock");
    let mut socket_server = SocketServer::bind(Arc::clone(&server), &path, 2).unwrap();
    let mut client = Client::connect(&SocketTransport::new(socket_server.path())).unwrap();
    let mut last_durable = 0;
    for row in &rows[..5] {
        let receipt = client.ingest(TENANT, &[row.values().to_vec()]).unwrap();
        assert_eq!(receipt.added, 1);
        assert!(
            receipt.durable_seq > last_durable,
            "durable server acks with a covering sync sequence"
        );
        last_durable = receipt.durable_seq;
    }
    // The pre-restart reference: every probe answer (and its epoch),
    // captured over the in-process loopback against the live server.
    let mut reference_client =
        Client::connect(&LoopbackTransport::new(Arc::clone(&server))).unwrap();
    let reference = reference_client.probe(TENANT, &probes).unwrap();
    let reference_epochs = reference_client.epochs(TENANT).unwrap();

    // ── Crash: drain-and-join the socket, drop every live handle. ──
    drop(client);
    socket_server.shutdown();
    drop(reference_client);
    drop(server);
    drop(durable);

    // ── Second life: recover from disk, serve from a fresh server. ──
    let defs = [TenantDef {
        id: TENANT,
        workflow: &wf,
        limits: AdmissionLimits::default(),
    }];
    let (recovered, report) = DurableRegistry::recover(&dir, &defs).unwrap();
    assert!(report.tail.is_clean(), "clean shutdown left a clean log");
    assert_eq!(report.rows_applied, 5);
    let recovered = Arc::new(recovered);
    let server = Arc::new(Server::with_ingest_sink(
        Arc::clone(recovered.registry()),
        Arc::clone(&recovered) as _,
    ));
    let path = dir.join("second.sock");
    let mut socket_server = SocketServer::bind(Arc::clone(&server), &path, 2).unwrap();
    let mut client = Client::connect(&SocketTransport::new(socket_server.path())).unwrap();

    // Identical answers — same safe flags AND same epochs, over the
    // socket, from a process that shares no memory with the first life.
    assert_eq!(client.epochs(TENANT).unwrap(), reference_epochs);
    assert_eq!(client.probe(TENANT, &probes).unwrap(), reference);

    // And the recovered tier keeps serving: further ingest lands
    // write-ahead and advances the epoch from where the first life left.
    assert_eq!(
        client
            .ingest(TENANT, &[rows[5].values().to_vec()])
            .unwrap()
            .added,
        1
    );
    assert_eq!(client.epochs(TENANT).unwrap()[0].epoch, 6);

    drop(client);
    socket_server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
