//! Checkpoint/restore guarantees, end to end:
//!
//! * **Stats identity** — a run restored from a warm snapshot produces
//!   bit-identical warmup-corrected statistics to one that never
//!   stopped, across the policy matrix × kernels × fault plans.
//! * **Byte stability** — capture → restore → capture reproduces the
//!   identical snapshot bytes for every configuration family the
//!   harness names.
//! * **Typed failure** — a bumped format version is
//!   `SnapshotVersionMismatch`; seeded corruption is always a typed
//!   error, never a panic, never a silent wrong result.

use speculative_scheduling::core::pipeline::sections;
use speculative_scheduling::core::{load_snapshot, FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::frontend::{programs, ProgramSpec};
use speculative_scheduling::harness::configs::{self, NamedConfig};
use speculative_scheduling::harness::snapfuzz;
use speculative_scheduling::snapshot::{
    write_atomic, Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
use speculative_scheduling::types::{SimError, SimStats};
use speculative_scheduling::workloads::{kernels, KernelSpec, KernelTrace, BENCHMARKS};

const WARMUP: u64 = 1_500;
const MEASURE: u64 = 6_000;

/// Warm up `spec` on `cfg` and hand back the captured warm state.
fn warm_up(cfg: &NamedConfig, spec: KernelSpec, warmup: u64) -> Snapshot {
    RunRequest::kernel(spec)
        .custom_config(cfg.config.clone())
        .length(RunLength { warmup, measure: 0 })
        .capture_warm()
        .execute()
        .expect("warms")
        .snapshot
        .expect("capture produces a snapshot")
}

/// A fault plan whose windows overlap the measurement phase, so the
/// restored run must reproduce fault injection exactly.
fn spike_plan() -> FaultPlan {
    FaultPlan::new()
        .latency_spike(800, 600, 9)
        .bank_conflict_burst(2_500, 400, 3)
}

/// The uninterrupted reference: warm up and measure in one simulator.
fn fresh_run(cfg: &NamedConfig, spec: KernelSpec, plan: Option<FaultPlan>) -> SimStats {
    let mut sim = Simulator::new(cfg.config.clone(), KernelTrace::new(spec));
    if let Some(p) = plan {
        sim.set_fault_plan(p).expect("valid plan");
    }
    let warm = sim.try_run_committed(WARMUP).expect("warmup runs");
    let end = sim.try_run_committed(MEASURE).expect("measure runs");
    end.delta(&warm)
}

/// The checkpointed path: warm up, capture, restore into a *new*
/// simulator, measure. The fault plan travels inside the snapshot.
fn warm_restored_run(cfg: &NamedConfig, spec: KernelSpec, plan: Option<FaultPlan>) -> SimStats {
    let mut sim = Simulator::new(cfg.config.clone(), KernelTrace::new(spec.clone()));
    if let Some(p) = plan {
        sim.set_fault_plan(p).expect("valid plan");
    }
    sim.try_run_committed(WARMUP).expect("warmup runs");
    let snap = sim.capture();
    drop(sim);
    let mut restored = Simulator::new(cfg.config.clone(), KernelTrace::new(spec));
    restored.restore(&snap).expect("restore succeeds");
    let warm = restored.stats();
    let end = restored.try_run_committed(MEASURE).expect("measure runs");
    end.delta(&warm)
}

#[test]
fn warm_restore_is_stat_identical_across_policies_kernels_and_faults() {
    let matrix: Vec<NamedConfig> = vec![
        configs::baseline(2),
        configs::spec_sched(4, true),
        configs::spec_sched_combined(4),
        configs::spec_sched_crit(4),
        configs::with_replay_scheme(
            4,
            speculative_scheduling::types::ReplayScheme::Selective,
            false,
        ),
    ];
    type KernelCtor = fn(u64) -> KernelSpec;
    let kernels: [(&str, KernelCtor); 3] = [
        ("mix_int", kernels::mix_int),
        ("fp_compute", kernels::fp_compute),
        ("branchy_int", kernels::branchy_int),
    ];
    for cfg in &matrix {
        for (kname, build) in &kernels {
            for plan in [None, Some(spike_plan())] {
                let fresh = fresh_run(cfg, build(0xB5), plan.clone());
                let warm = warm_restored_run(cfg, build(0xB5), plan);
                assert_eq!(fresh, warm, "restored run diverged: {} × {kname}", cfg.name);
            }
        }
    }
}

#[test]
fn capture_restore_capture_is_byte_identical_for_every_config_family() {
    for spec in configs::ConfigSpec::variants_at(2) {
        let named = spec.named();
        let mut sim = Simulator::new(named.config.clone(), KernelTrace::new(kernels::mix_int(1)));
        sim.try_run_committed(1_200).expect("runs");
        let first = sim.capture();
        let mut restored =
            Simulator::new(named.config.clone(), KernelTrace::new(kernels::mix_int(1)));
        restored.restore(&first).expect("restore succeeds");
        let second = restored.capture();
        assert_eq!(
            first.to_bytes(),
            second.to_bytes(),
            "capture→restore→capture drifted for {}",
            named.name
        );
    }
}

#[test]
fn bumped_format_version_is_a_typed_version_mismatch() {
    let cfg = configs::baseline(2);
    let snap = warm_up(&cfg, kernels::mix_int(1), 500);
    // Header: `ss-snapshot v{N} ...` — restamp it with the next version.
    let bumped = |bytes: &[u8]| {
        let current = format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_FORMAT_VERSION} ");
        assert!(bytes.starts_with(current.as_bytes()));
        let mut out = format!("{SNAPSHOT_MAGIC} v{} ", SNAPSHOT_FORMAT_VERSION + 1).into_bytes();
        out.extend_from_slice(&bytes[current.len()..]);
        out
    };
    match Snapshot::from_bytes(&bumped(&snap.to_bytes())) {
        Err(SnapshotError::VersionMismatch { found, expected }) => {
            assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // Through the file layer the same failure is the typed SimError.
    let dir = std::env::temp_dir().join(format!("ss-snapver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("future.snap");
    write_atomic(&path, &snap).expect("writes");
    let on_disk = std::fs::read(&path).unwrap();
    std::fs::write(&path, bumped(&on_disk)).unwrap();
    match load_snapshot(&path) {
        Err(SimError::SnapshotVersionMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
        }
        other => panic!("expected SimError::SnapshotVersionMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forking_from_an_older_format_file_is_a_typed_version_mismatch() {
    let cfg = configs::baseline(2);
    let snap = warm_up(&cfg, kernels::mix_int(1), 500);
    let dir = std::env::temp_dir().join(format!("ss-snapv1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.snap");
    write_atomic(&path, &snap).expect("writes");
    let mut on_disk = std::fs::read(&path).unwrap();
    let vpos = SNAPSHOT_MAGIC.len() + 2;
    assert_eq!(on_disk[vpos], b'0' + SNAPSHOT_FORMAT_VERSION as u8);
    on_disk[vpos] = b'1';
    std::fs::write(&path, on_disk).unwrap();
    let err = RunRequest::kernel(kernels::mix_int(1))
        .custom_config(cfg.config.clone())
        .length(RunLength {
            warmup: 0,
            measure: 100,
        })
        .from_snapshot_path(path.display().to_string())
        .execute()
        .expect_err("a v1 file must not restore");
    match err {
        SimError::SnapshotVersionMismatch {
            path: p,
            found,
            expected,
        } => {
            assert_eq!(p, path.display().to_string());
            assert_eq!(found, 1);
            assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
        }
        other => panic!("expected SimError::SnapshotVersionMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_under_the_wrong_config_is_a_typed_corrupt_error() {
    let a = configs::baseline(2);
    let b = configs::spec_sched(4, true);
    let snap = warm_up(&a, kernels::mix_int(1), 500);
    let err = RunRequest::kernel(kernels::mix_int(1))
        .custom_config(b.config.clone())
        .length(RunLength {
            warmup: 0,
            measure: 100,
        })
        .from_snapshot(snap)
        .execute()
        .expect_err("config fingerprint must gate the restore");
    assert!(
        matches!(err, SimError::SnapshotCorrupt { .. }),
        "expected SnapshotCorrupt, got {err}"
    );
}

#[test]
fn seeded_corruption_campaign_yields_only_typed_errors() {
    let stats = snapfuzz::run_campaign(0xB5B5_0001, 80);
    assert!(
        stats.clean(),
        "corruption escaped typed handling: {stats:?}"
    );
    assert!(stats.container_rejected > 40, "{stats:?}");
}

/// A warm snapshot writes what the run touched, not whole tables: every
/// registry kernel and every `rv:` program, 1K µ-ops into `SpecSched_4`.
/// Largest measured (format 3): BPRED 3,478 B (`branchy_int`; 3,360 B
/// at format 7), MEM 40,168 B (`rand_medium`); the bounds are about
/// twice that. Format 2
/// wrote 288 KB and 329 KB on every cell. CORE holds the in-flight
/// window: largest 27,564 B (`crafty_like`, format 6), bounded with 19%
/// headroom; format 5 wrote each in-flight branch's 851 B repair
/// checkpoint into it, up to 98,286 B (`call_ret_mix`), and fails the
/// bound on 15 of the 24 captures.
#[test]
fn warm_sections_stay_small_on_every_kernel_and_program() {
    const CORE_BOUND: usize = 32 << 10;
    const BPRED_BOUND: usize = 7 << 10;
    const MEM_BOUND: usize = 80 << 10;
    let cfg = configs::spec_sched(4, true);
    let len = RunLength {
        warmup: 1_000,
        measure: 0,
    };
    let mut reqs: Vec<(String, RunRequest)> = BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), RunRequest::kernel((b.build)(0xb5))))
        .collect();
    for p in programs::names() {
        reqs.push((
            format!("rv:{p}"),
            RunRequest::program(ProgramSpec::suite(p, 0xb5)),
        ));
    }
    for (name, req) in reqs {
        let snap = req
            .custom_config(cfg.config.clone())
            .length(len)
            .capture_warm()
            .execute()
            .expect("warms")
            .snapshot
            .expect("capture produces a snapshot");
        let size = |tag| snap.section(tag).expect("section present").len();
        let (bpred, mem) = (size(sections::BPRED), size(sections::MEM));
        let core = size(sections::CORE);
        eprintln!("{name}: core {core} B, bpred {bpred} B, mem {mem} B");
        assert!(core < CORE_BOUND, "{name}: CORE section {core} B");
        assert!(bpred < BPRED_BOUND, "{name}: BPRED section {bpred} B");
        assert!(mem < MEM_BOUND, "{name}: MEM section {mem} B");
    }
}
