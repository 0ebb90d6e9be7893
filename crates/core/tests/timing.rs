//! Cycle-exact micro-timing tests: tiny hand-built traces whose IPC and
//! latency behaviour can be predicted in closed form, pinning down the
//! pipeline's timing conventions (issue-to-execute delay, back-to-back
//! wakeup, port widths, non-pipelined units, forwarding).

use ss_core::{RunLength, RunRequest, Simulator};
use ss_isa::{MicroOp, RegRef, INST_BYTES};
use ss_types::persist::{DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::{Addr, ArchReg, OpClass, Pc, SchedPolicyKind, SimConfig, SimStats};
use ss_workloads::TraceSource;

/// These tests only care about the stats block; a run that cannot even
/// start is a test failure, so unwrap the outcome here.
fn run_trace(cfg: SimConfig, trace: LoopTrace, len: RunLength) -> SimStats {
    RunRequest::trace_source(trace)
        .custom_config(cfg)
        .length(len)
        .execute()
        .unwrap()
        .stats
}

/// Repeats a fixed µ-op sequence forever, rewriting PCs so the stream is
/// a straight-line megablock (no branches unless included explicitly).
struct LoopTrace {
    ops: Vec<MicroOp>,
    i: usize,
}

impl LoopTrace {
    /// Builds a loop of `body` closed by an always-taken backward jump.
    fn new(mut body: Vec<MicroOp>) -> Self {
        let base = Pc::new(0x40_0000);
        for (k, op) in body.iter_mut().enumerate() {
            op.pc = base.step(k as u64 * INST_BYTES);
        }
        let jump_pc = base.step(body.len() as u64 * INST_BYTES);
        body.push(MicroOp::jump(
            jump_pc,
            ss_types::BranchKind::Direct,
            base,
            None,
        ));
        LoopTrace { ops: body, i: 0 }
    }
}

impl TraceSource for LoopTrace {
    fn next_uop(&mut self) -> MicroOp {
        let op = self.ops[self.i];
        self.i = (self.i + 1) % self.ops.len();
        op
    }
    fn name(&self) -> &str {
        "loop-trace"
    }
}

/// The loop body is rebuilt by the caller; only the cursor is state.
impl PersistState for LoopTrace {
    fn save_state(&self, w: &mut Writer) {
        self.i.save(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.i = usize::load(r)?;
        Ok(())
    }
}

fn r(i: u8) -> RegRef {
    RegRef::int(ArchReg::new(i))
}

fn cfg(delay: u64) -> SimConfig {
    SimConfig::builder()
        .issue_to_execute_delay(delay)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(false)
        .build()
}

const LEN: RunLength = RunLength {
    warmup: 2_000,
    measure: 20_000,
};

/// A serial ALU chain retires one µ-op per cycle regardless of the
/// issue-to-execute delay (back-to-back wakeup hides it completely).
#[test]
fn dependent_alu_chain_is_back_to_back() {
    for delay in [0u64, 4, 6] {
        let body = vec![
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
            MicroOp::alu(Pc::new(0), r(1), r(1), None),
        ];
        let s = run_trace(cfg(delay), LoopTrace::new(body), LEN);
        // 7 chained ALUs + 1 free jump per iteration: ~7 cycles/iter.
        let ipc = s.ipc();
        assert!(
            (1.05..=1.25).contains(&ipc),
            "delay {delay}: serial chain IPC should be ~8/7, got {ipc:.3}"
        );
        assert_eq!(s.replayed_total(), 0);
    }
}

/// Independent ALU µ-ops saturate the 4 ALU ports (not the 6-wide issue).
#[test]
fn independent_alus_saturate_alu_ports() {
    let body: Vec<MicroOp> = (1..=8)
        .map(|i| MicroOp::alu(Pc::new(0), r(i), r(20 + i), None))
        .collect();
    let s = run_trace(cfg(4), LoopTrace::new(body), LEN);
    // 8 independent ALUs + jump per iteration; 4 ALU ports + the branch
    // shares them → 9 µ-ops / ceil(9/4) cycles ≈ 3.6-4 IPC.
    let ipc = s.ipc();
    assert!(
        (3.2..=4.2).contains(&ipc),
        "ALU-port-bound IPC, got {ipc:.3}"
    );
}

/// Non-pipelined divides serialize on the single MulDiv unit: one divide
/// per 25 cycles even when independent.
#[test]
fn divides_are_not_pipelined() {
    let body = vec![
        MicroOp::compute(Pc::new(0), OpClass::IntDiv, r(1), r(11), None),
        MicroOp::compute(Pc::new(0), OpClass::IntDiv, r(2), r(12), None),
    ];
    let s = run_trace(cfg(4), LoopTrace::new(body), LEN);
    // 2 divides + 1 jump per iteration, 25 cycles each divide → 3/50.
    let ipc = s.ipc();
    assert!(
        (0.05..=0.075).contains(&ipc),
        "two serialized 25-cycle divides per iteration, got {ipc:.3}"
    );
}

/// Pipelined multiplies on the single MulDiv port: one per cycle.
#[test]
fn multiplies_are_pipelined_but_port_limited() {
    let body: Vec<MicroOp> = (1..=4)
        .map(|i| MicroOp::compute(Pc::new(0), OpClass::IntMul, r(i), r(20 + i), None))
        .collect();
    let s = run_trace(cfg(4), LoopTrace::new(body), LEN);
    // 4 independent muls per iteration through 1 port → 4 cycles; plus
    // the jump rides along → IPC ≈ 5/4.
    let ipc = s.ipc();
    assert!(
        (1.1..=1.35).contains(&ipc),
        "mul-port-bound IPC, got {ipc:.3}"
    );
}

/// An L1-hitting load chain costs exactly load-to-use (4) cycles per link
/// under speculative scheduling, independent of the delay.
#[test]
fn load_chain_costs_load_to_use_per_link() {
    for delay in [0u64, 4] {
        let body = vec![MicroOp::load(Pc::new(0), r(1), r(1), Addr::new(0x1000))];
        let s = run_trace(cfg(delay), LoopTrace::new(body), LEN);
        // 1 load + 1 jump per 4 cycles → IPC 0.5.
        let ipc = s.ipc();
        assert!(
            (0.45..=0.55).contains(&ipc),
            "delay {delay}: chained hitting load = 4 cycles/link, got {ipc:.3}"
        );
        assert_eq!(s.replayed_total(), 0, "hits must not replay");
    }
}

/// Store-to-load forwarding: a load reading a just-stored address is
/// satisfied from the store queue without an L1D access — provided the
/// store is still in the window. An older serial divide blocks commit so
/// the store queue stays populated while the pair executes out of order.
#[test]
fn store_to_load_forwarding_bypasses_the_cache() {
    let a = Addr::new(0x2000);
    let body = vec![
        MicroOp::compute(Pc::new(0), OpClass::IntDiv, r(20), r(20), None),
        MicroOp::alu(Pc::new(0), r(3), r(3), None),
        MicroOp::store(Pc::new(0), r(10), r(3), a),
        MicroOp::load(Pc::new(0), r(4), r(10), a),
        MicroOp::alu(Pc::new(0), r(5), r(4), None),
    ];
    let s = run_trace(cfg(4), LoopTrace::new(body), LEN);
    // The store-set-serialized pair executes while the divide blocks
    // commit, so most loads forward instead of accessing the L1D.
    assert!(
        s.l1d.accesses < s.committed_loads / 2,
        "forwarded loads must not access the L1D: {} accesses for {} loads",
        s.l1d.accesses,
        s.committed_loads
    );
    // Store Sets must have learned the hazard early (few violations
    // relative to the number of pairs).
    assert!(
        s.memdep_violations < s.committed_loads / 20,
        "violations must stay rare: {}",
        s.memdep_violations
    );
}

/// Exercising tick() directly: the watchdog-visible state stays sane and
/// cycles advance monotonically.
#[test]
fn manual_ticks_advance_the_machine() {
    let body = vec![MicroOp::alu(Pc::new(0), r(1), r(2), None)];
    let mut sim = Simulator::new(cfg(4), LoopTrace::new(body));
    for _ in 0..500 {
        sim.tick();
    }
    let s = sim.stats();
    assert_eq!(s.cycles, 500);
    assert!(
        s.committed_uops > 300,
        "machine must be retiring by cycle 500"
    );
}
