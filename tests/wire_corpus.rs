//! Wire-decoder hardening against a committed frame corpus.
//!
//! `tests/corpus/` holds one framed payload per protocol message shape
//! (requests `req_*.bin`, responses `resp_*.bin`). Each file is checked
//! three ways:
//!
//! 1. **Pinned bytes** — the committed file must equal the encoder's
//!    output for the same value, so any encoding change is an explicit,
//!    reviewed corpus update (regenerate with
//!    `REGEN_CORPUS=1 cargo test --test wire_corpus`).
//! 2. **Truncation sweep** — every strict prefix of the frame must come
//!    back as a typed [`WireError`], never a panic.
//! 3. **Bit-flip sweep** — flipping every bit of every byte (plus a
//!    seeded-PRNG multi-flip pass) must either fail with a typed
//!    [`WireError`] or decode to a value whose re-encoding round-trips
//!    (a flip may legitimately produce a *different valid* message,
//!    e.g. in a tenant id; it must never produce an inconsistent one).
//!
//! The decoders are *total* by construction (length-guarded counts, no
//! unchecked indexing); this suite is the regression net that keeps
//! them that way. A fourth check carries the request corpus past the
//! decoder: every request payload, and every truncation or bit flip of
//! it, is served by [`Server::handle_frame`], which must answer with a
//! decodable response and leave every tenant able to ingest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use sv_core::safety::{ProbeOutcome, ProbeRequest};
use sv_core::wire::{
    frame, unframe, BusyReason, IngestReceipt, ModuleEpoch, Request, Response, ServeFault,
};
use sv_relation::AttrSet;
use sv_serve::{Server, TenantConfig, TenantId, TenantRegistry};
use sv_workflow::library::fig1_workflow;
use sv_workflow::ModuleId;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every corpus entry: file name + the framed bytes the encoder
/// produces today. Requests and responses are distinguished by prefix.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let req = |r: &Request| frame(&r.encode());
    let resp = |r: &Response| frame(&r.encode());
    vec![
        (
            "req_probe_word_sets.bin",
            req(&Request::Probe {
                tenant: 7,
                probes: vec![
                    ProbeRequest::new(ModuleId(0), AttrSet::from_word(0b1010), 4),
                    ProbeRequest::new(ModuleId(2), AttrSet::from_word(0), 1).at_epoch(5),
                ],
            }),
        ),
        (
            "req_probe_wide_set.bin",
            req(&Request::Probe {
                tenant: 1,
                probes: vec![ProbeRequest::new(
                    ModuleId(3),
                    AttrSet::from_indices(&[1, 65, 130]),
                    1 << 90,
                )],
            }),
        ),
        (
            "req_probe_empty.bin",
            req(&Request::Probe {
                tenant: 0,
                probes: Vec::new(),
            }),
        ),
        (
            "req_ingest.bin",
            req(&Request::Ingest {
                tenant: u64::MAX,
                rows: vec![vec![0, 1, 2, 3], vec![u32::MAX, 0, 7, 9]],
            }),
        ),
        (
            "req_ingest_empty_row.bin",
            req(&Request::Ingest {
                tenant: 3,
                rows: vec![Vec::new()],
            }),
        ),
        ("req_epochs.bin", req(&Request::Epochs { tenant: 42 })),
        (
            "resp_probe.bin",
            resp(&Response::Probe(vec![
                ProbeOutcome {
                    module: ModuleId(1),
                    safe: true,
                    epoch: 9,
                },
                ProbeOutcome {
                    module: ModuleId(0),
                    safe: false,
                    epoch: 0,
                },
            ])),
        ),
        (
            "resp_receipt.bin",
            resp(&Response::Receipt(IngestReceipt {
                added: 3,
                epochs: vec![
                    ModuleEpoch {
                        module: ModuleId(0),
                        epoch: 5,
                    },
                    ModuleEpoch {
                        module: ModuleId(1),
                        epoch: 2,
                    },
                ],
                durable_seq: 17,
            })),
        ),
        (
            "resp_epochs.bin",
            resp(&Response::Epochs(vec![ModuleEpoch {
                module: ModuleId(0),
                epoch: 11,
            }])),
        ),
        (
            "resp_busy.bin",
            resp(&Response::Busy(BusyReason::InflightBytes {
                got: 2048,
                limit: 1024,
            })),
        ),
        (
            "resp_error_stale.bin",
            resp(&Response::Error(ServeFault::StaleEpoch {
                module: 2,
                expected: 4,
                actual: 6,
            })),
        ),
        (
            "resp_error_rejected.bin",
            resp(&Response::Error(ServeFault::Rejected {
                applied: 2,
                detail: "row 2: module m1 output disagrees".into(),
            })),
        ),
        (
            "resp_error_malformed.bin",
            resp(&Response::Error(ServeFault::Malformed {
                detail: "unknown tag 0xff — café ∅".into(),
            })),
        ),
    ]
}

/// Decodes a full framed buffer through the right decoder for the
/// corpus file. Returns the re-encoded frame on success so callers can
/// check round-trip consistency. Must never panic — that is the
/// property under test.
fn decode_frame(name: &str, bytes: &[u8]) -> Result<Vec<u8>, sv_core::wire::WireError> {
    let payload = unframe(bytes)?;
    if name.starts_with("req_") {
        let req = Request::decode(payload)?;
        Ok(frame(&req.encode()))
    } else {
        let resp = Response::decode(payload)?;
        Ok(frame(&resp.encode()))
    }
}

#[test]
fn corpus_files_are_pinned_to_the_encoders() {
    let dir = corpus_dir();
    if std::env::var_os("REGEN_CORPUS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in corpus() {
            std::fs::write(dir.join(name), &bytes).unwrap();
        }
    }
    for (name, bytes) in corpus() {
        let path = dir.join(name);
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing corpus file {} ({e}); regenerate with REGEN_CORPUS=1",
                path.display()
            )
        });
        assert_eq!(
            committed, bytes,
            "{name}: committed frame differs from the encoder's output; \
             if the wire format changed intentionally, regenerate with REGEN_CORPUS=1"
        );
        // The untouched frame round-trips to itself.
        assert_eq!(decode_frame(name, &bytes).expect(name), bytes, "{name}");
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for (name, bytes) in corpus() {
        for cut in 0..bytes.len() {
            match decode_frame(name, &bytes[..cut]) {
                // A strict prefix keeps its original length field, so it
                // can never decode as complete.
                Ok(_) => panic!("{name}: truncation to {cut} bytes decoded as complete"),
                Err(e) => {
                    let _ = e.to_string(); // typed + displayable, no panic
                }
            }
        }
    }
}

#[test]
fn every_bit_flip_is_typed_or_roundtrips() {
    for (name, bytes) in corpus() {
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                match decode_frame(name, &damaged) {
                    // A flip may yield a *different valid* message (a
                    // changed tenant id, value, epoch). The decoded
                    // value must then re-encode decodably — no
                    // half-valid states.
                    Ok(reencoded) => {
                        decode_frame(name, &reencoded).unwrap_or_else(|e| {
                            panic!("{name}: flip {byte}.{bit} decoded but re-encode failed: {e}")
                        });
                    }
                    Err(e) => {
                        let _ = e.to_string();
                    }
                }
            }
        }
    }
}

#[test]
fn seeded_multi_flip_sweep_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    for (name, bytes) in corpus() {
        for _ in 0..500 {
            let mut damaged = bytes.clone();
            let flips = rng.gen_range(1..=8usize);
            for _ in 0..flips {
                let byte = rng.gen_range(0..damaged.len());
                damaged[byte] ^= 1 << rng.gen_range(0..8u32);
            }
            // Occasionally also truncate or extend, compounding faults.
            match rng.gen_range(0..4u32) {
                0 => {
                    let cut = rng.gen_range(0..=damaged.len());
                    damaged.truncate(cut);
                }
                1 => damaged.push(rng.gen_range(0..=255u32) as u8),
                _ => {}
            }
            if let Ok(reencoded) = decode_frame(name, &damaged) {
                assert!(
                    decode_frame(name, &reencoded).is_ok(),
                    "{name}: mutant decoded but re-encode did not round-trip"
                );
            }
        }
    }
}

#[test]
fn every_request_variant_is_served_without_a_panic() {
    // Streaming Figure-1 tenants at every tenant id the corpus names.
    let wf = fig1_workflow();
    let registry = Arc::new(TenantRegistry::new());
    let tenants = [0, 1, 3, 7, 42, u64::MAX];
    for id in tenants {
        registry
            .create(TenantId(id), TenantConfig::new(&wf).streaming(true))
            .unwrap();
    }
    let server = Server::new(registry);
    let serve = |payload: &[u8]| {
        let answer = server.handle_frame(payload);
        Response::decode(&answer).expect("every answer decodes")
    };
    for (name, bytes) in corpus() {
        if !name.starts_with("req_") {
            continue;
        }
        let payload = unframe(&bytes).unwrap();
        serve(payload);
        for cut in 0..payload.len() {
            serve(&payload[..cut]);
        }
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut damaged = payload.to_vec();
                damaged[byte] ^= 1 << bit;
                serve(&damaged);
            }
        }
    }
    // No frame poisoned a tenant: each still ingests a valid row.
    let row = wf.run(&[0, 0]).unwrap().values().to_vec();
    for tenant in tenants {
        let ingest = Request::Ingest {
            tenant,
            rows: vec![row.clone()],
        };
        let answer = serve(&ingest.encode());
        assert!(
            matches!(answer, Response::Receipt(_)),
            "tenant {tenant}: {answer:?}"
        );
    }
}
