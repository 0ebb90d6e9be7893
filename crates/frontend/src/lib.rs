//! Real-program frontend: a functional (timing-free) RV32IM user-mode
//! interpreter that feeds the scheduler *true-dependency* µ-op traces.
//!
//! The synthetic kernels in `ss-workloads` are stationary by
//! construction, so trained predictors (Schedule Shifting, the H/M
//! filter, criticality tables) are only ever measured in steady state.
//! This crate runs real RV32IM programs — a checked-in suite assembled
//! by the in-crate encoder, or any ELF32/flat binary — and cracks each
//! retired instruction into the existing [`ss_isa::MicroOp`] shapes with
//! real register/memory dependencies, real branch outcomes and targets,
//! and real effective addresses.
//!
//! The pieces:
//!
//! - [`decode`] / [`asm`] — an RV32IM decoder and a matching two-pass
//!   encoder (so the program suite needs no external toolchain);
//! - [`interp`] — the architectural machine: registers, PC, flat
//!   little-endian memory, an exit/putchar ecall surface;
//! - [`elf`] — a minimal ELF32 segment loader and a raw `.bin` path;
//! - [`programs`] — the four-program suite (sort, hash join, pointer
//!   chasing, LZ match loop);
//! - [`ProgramSpec`] — a parseable/printable program reference, giving
//!   `RunRequest` its `src=rv:…` wire form;
//! - [`RvTraceSource`] — the [`TraceSource`] adapter (infinite: the
//!   program restarts on exit, joined by a synthetic jump µ-op), with
//!   [`PersistState`] so snapshots and
//!   chunked execution keep working. A checked run's commit oracle is a
//!   second `RvTraceSource` over the same program, wrapped in
//!   `ss_oracle::InOrderModel`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use ss_isa::{MemAccess, MicroOp, RegRef};
use ss_types::persist::{fnv1a64, DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::{Addr, ArchReg, BranchKind, OpClass, Pc};
use ss_workloads::TraceSource;

pub mod asm;
pub mod decode;
pub mod elf;
pub mod interp;
pub mod programs;

use decode::Inst;
use interp::{Interp, Retired, Step, Stop, OUTPUT_CAP};

/// A loaded RV32 program: flat image, entry point, memory budget, and
/// the argument passed in `a0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RvProgram {
    /// Human-readable name (suite name or file path).
    pub name: String,
    /// Entry PC.
    pub entry: u32,
    /// Initial memory image, loaded at address 0.
    pub image: Vec<u8>,
    /// Total flat memory size (image is zero-extended to this).
    pub mem_size: u32,
    /// Program argument, placed in `a0` at reset.
    pub arg: u32,
}

impl RvProgram {
    /// A fingerprint binding snapshots to this exact program.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.image.len() + self.name.len() + 16);
        bytes.extend_from_slice(self.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&self.entry.to_le_bytes());
        bytes.extend_from_slice(&self.mem_size.to_le_bytes());
        bytes.extend_from_slice(&self.arg.to_le_bytes());
        bytes.extend_from_slice(&self.image);
        fnv1a64(&bytes)
    }
}

/// A parseable, printable reference to an RV32 program — the `rv:…`
/// source form of the `RunRequest` wire grammar.
///
/// Canonical forms (accepted by [`FromStr`], produced by [`fmt::Display`]):
///
/// - `rv:<name>@<seed>` — suite program ([`programs::build`]); the seed
///   may be decimal or `0x…` hex, and `rv:<name>` defaults it to 1;
/// - `rv:elf:<path>` — an ELF32 RISC-V executable on disk;
/// - `rv:bin:<path>@<entry>` — a raw flat binary loaded at address 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSpec {
    /// A checked-in suite program, by name and seed.
    Suite {
        /// Program name (see [`programs::names`]).
        name: String,
        /// Seed folded into `a0`.
        seed: u32,
    },
    /// An ELF32 executable loaded from disk.
    Elf {
        /// Filesystem path.
        path: String,
    },
    /// A raw flat binary loaded at address 0.
    Bin {
        /// Filesystem path.
        path: String,
        /// Entry PC.
        entry: u32,
    },
}

impl ProgramSpec {
    /// A suite-program spec.
    pub fn suite(name: &str, seed: u32) -> Self {
        ProgramSpec::Suite {
            name: name.to_string(),
            seed,
        }
    }

    /// Loads/builds the program this spec names.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure: unknown suite name,
    /// unreadable file, or a malformed ELF image.
    pub fn resolve(&self) -> Result<RvProgram, String> {
        match self {
            ProgramSpec::Suite { name, seed } => programs::build(name, *seed).ok_or_else(|| {
                format!(
                    "unknown suite program `{name}` (have {:?})",
                    programs::names()
                )
            }),
            ProgramSpec::Elf { path } => {
                let bytes =
                    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
                elf::load_elf(path, &bytes)
            }
            ProgramSpec::Bin { path, entry } => {
                let bytes =
                    std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
                elf::load_bin(path, &bytes, *entry)
            }
        }
    }
}

impl fmt::Display for ProgramSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramSpec::Suite { name, seed } => write!(f, "rv:{name}@{seed:#x}"),
            ProgramSpec::Elf { path } => write!(f, "rv:elf:{path}"),
            ProgramSpec::Bin { path, entry } => write!(f, "rv:bin:{path}@{entry:#x}"),
        }
    }
}

fn parse_u32(s: &str) -> Result<u32, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("invalid number `{s}`"))
}

impl FromStr for ProgramSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix("rv:")
            .ok_or_else(|| format!("program spec `{s}` must start with `rv:`"))?;
        if let Some(path) = body.strip_prefix("elf:") {
            if path.is_empty() {
                return Err("rv:elf: needs a path".into());
            }
            return Ok(ProgramSpec::Elf {
                path: path.to_string(),
            });
        }
        if let Some(rest) = body.strip_prefix("bin:") {
            let (path, entry) = rest
                .rsplit_once('@')
                .ok_or_else(|| format!("`rv:bin:{rest}` needs `@<entry>`"))?;
            if path.is_empty() {
                return Err("rv:bin: needs a path".into());
            }
            return Ok(ProgramSpec::Bin {
                path: path.to_string(),
                entry: parse_u32(entry)?,
            });
        }
        let (name, seed) = match body.rsplit_once('@') {
            Some((n, s)) => (n, parse_u32(s)?),
            None => (body, 1),
        };
        if name.is_empty() || name.contains(|c: char| c.is_whitespace()) {
            return Err(format!("invalid program name `{name}`"));
        }
        Ok(ProgramSpec::Suite {
            name: name.to_string(),
            seed,
        })
    }
}

/// `x{i}` as a µ-op source operand: `x0` is the always-zero register and
/// never creates a dependency, so it is dropped.
fn rr(i: u8) -> Option<RegRef> {
    (i != 0).then(|| RegRef::int(ArchReg::new(i)))
}

/// `x{i}` as a µ-op destination. Writes to `x0` are architecturally
/// discarded, but the µ-op shape requires a destination; `r0` is safe
/// because [`rr`] never emits it as a source.
fn rd(i: u8) -> Option<RegRef> {
    Some(RegRef::int(ArchReg::new(i)))
}

/// An ALU-class µ-op with 0–2 sources (the constructor in `ss-isa`
/// requires at least one).
fn alu_uop(pc: u32, class: OpClass, dst: u8, s1: Option<RegRef>, s2: Option<RegRef>) -> MicroOp {
    MicroOp {
        pc: Pc::new(pc as u64),
        class,
        dst: rd(dst),
        srcs: [s1, s2],
        mem: None,
        branch: None,
    }
}

/// Whether `x{i}` is a RAS link register (`ra`/`t0` per the RISC-V
/// calling convention's call/return hints).
fn is_link(i: u8) -> bool {
    i == 1 || i == 5
}

/// Cracks one retired instruction into µ-ops, appending to `out`.
///
/// Every instruction becomes at least one µ-op; `jal`/`jalr` with a live
/// link register become two (link-write ALU, then the jump), both at the
/// same PC so the inter-µ-op PC chain stays consistent.
fn crack(r: &Retired, out: &mut VecDeque<MicroOp>) {
    let pc = r.pc;
    match r.inst {
        Inst::Lui { rd: d, .. } | Inst::Auipc { rd: d, .. } => {
            out.push_back(alu_uop(pc, OpClass::IntAlu, d, None, None));
        }
        Inst::OpImm { op, rd: d, rs1, .. } => {
            let class = if op.is_mul() {
                OpClass::IntMul
            } else if op.is_div() {
                OpClass::IntDiv
            } else {
                OpClass::IntAlu
            };
            out.push_back(alu_uop(pc, class, d, rr(rs1), None));
        }
        Inst::Op {
            op,
            rd: d,
            rs1,
            rs2,
        } => {
            let class = if op.is_mul() {
                OpClass::IntMul
            } else if op.is_div() {
                OpClass::IntDiv
            } else {
                OpClass::IntAlu
            };
            out.push_back(alu_uop(pc, class, d, rr(rs1), rr(rs2)));
        }
        Inst::Load { rd: d, rs1, .. } => {
            let (addr, size) = r.ea.expect("retired load has an effective address");
            out.push_back(MicroOp {
                pc: Pc::new(pc as u64),
                class: OpClass::Load,
                dst: rd(d),
                srcs: [rr(rs1), None],
                mem: Some(MemAccess {
                    addr: Addr::new(addr as u64),
                    size,
                }),
                branch: None,
            });
        }
        Inst::Store { rs1, rs2, .. } => {
            let (addr, size) = r.ea.expect("retired store has an effective address");
            out.push_back(MicroOp {
                pc: Pc::new(pc as u64),
                class: OpClass::Store,
                dst: None,
                srcs: [rr(rs1), rr(rs2)],
                mem: Some(MemAccess {
                    addr: Addr::new(addr as u64),
                    size,
                }),
                branch: None,
            });
        }
        Inst::Branch { rs1, rs2, imm, .. } => {
            let taken = r.next_pc != pc.wrapping_add(4);
            out.push_back(MicroOp {
                pc: Pc::new(pc as u64),
                class: OpClass::Branch(BranchKind::Conditional),
                dst: None,
                srcs: [rr(rs1), rr(rs2)],
                mem: None,
                // The taken-path target, whether or not this execution
                // took it — matching how the BTB trains on kernels.
                branch: Some(ss_isa::BranchOutcome {
                    taken,
                    target: Pc::new(pc.wrapping_add(imm as u32) as u64),
                }),
            });
        }
        Inst::Jal { rd: d, .. } => {
            if d != 0 {
                out.push_back(alu_uop(pc, OpClass::IntAlu, d, None, None));
            }
            let kind = if is_link(d) {
                BranchKind::Call
            } else {
                BranchKind::Direct
            };
            out.push_back(MicroOp::jump(
                Pc::new(pc as u64),
                kind,
                Pc::new(r.next_pc as u64),
                None,
            ));
        }
        Inst::Jalr { rd: d, rs1, .. } => {
            if d != 0 {
                out.push_back(alu_uop(pc, OpClass::IntAlu, d, None, None));
            }
            let kind = if is_link(d) {
                BranchKind::Call
            } else if is_link(rs1) {
                BranchKind::Return
            } else {
                BranchKind::Indirect
            };
            out.push_back(MicroOp::jump(
                Pc::new(pc as u64),
                kind,
                Pc::new(r.next_pc as u64),
                rr(rs1),
            ));
        }
        // Fences retire as a dependency-free ALU op (the memory model is
        // already sequential); a retiring ecall is putchar, which reads
        // a7 and a0.
        Inst::Fence => out.push_back(alu_uop(pc, OpClass::IntAlu, 0, None, None)),
        Inst::Ecall => out.push_back(alu_uop(pc, OpClass::IntAlu, 0, rr(17), rr(10))),
        Inst::Ebreak => unreachable!("ebreak traps, it never retires"),
    }
}

/// [`TraceSource`] adapter over the interpreter.
///
/// The pipeline's trace contract is an *infinite* stream (runs are
/// bounded by committed-µ-op budgets), so when the program exits or
/// traps the source emits one synthetic direct jump from the stop PC
/// back to the entry point and restarts the machine — deterministic,
/// and the PC chain stays consistent for the branch predictors.
#[derive(Debug)]
pub struct RvTraceSource {
    prog: RvProgram,
    interp: Interp,
    pending: VecDeque<MicroOp>,
    restarts: u64,
    traps: u64,
    out: Vec<u8>,
}

impl RvTraceSource {
    /// A fresh source at the program's entry.
    pub fn new(prog: RvProgram) -> Self {
        let interp = Interp::new(&prog);
        RvTraceSource {
            prog,
            interp,
            pending: VecDeque::new(),
            restarts: 0,
            traps: 0,
            out: Vec::new(),
        }
    }

    /// Completed program executions so far (exits + traps).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Executions that ended in a trap rather than a clean exit.
    pub fn traps(&self) -> u64 {
        self.traps
    }

    /// Bytes written through the putchar ecall, across restarts (capped).
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// The program this source executes.
    pub fn program(&self) -> &RvProgram {
        &self.prog
    }

    fn restart(&mut self, stop_pc: u32) {
        self.restarts += 1;
        for b in self.interp.output() {
            if self.out.len() >= OUTPUT_CAP {
                break;
            }
            self.out.push(*b);
        }
        self.interp = Interp::new(&self.prog);
        self.pending.push_back(MicroOp::jump(
            Pc::new(stop_pc as u64),
            BranchKind::Direct,
            Pc::new(self.prog.entry as u64),
            None,
        ));
    }
}

impl TraceSource for RvTraceSource {
    fn next_uop(&mut self) -> MicroOp {
        loop {
            if let Some(u) = self.pending.pop_front() {
                return u;
            }
            match self.interp.step() {
                Step::Retired(r) => crack(&r, &mut self.pending),
                Step::Stop(Stop::Exit { pc, .. }) => self.restart(pc),
                Step::Stop(Stop::Trap { pc, .. }) => {
                    self.traps += 1;
                    self.restart(pc);
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.prog.name
    }
}

impl PersistState for RvTraceSource {
    /// The program text is not serialized — only a fingerprint binding
    /// the snapshot to it (same scheme as `KernelTrace`): the restore
    /// target is always constructed from the same [`ProgramSpec`], and
    /// the fingerprint turns a mismatch into a typed decode error.
    fn save_state(&self, w: &mut Writer) {
        self.prog.fingerprint().save(w);
        self.interp.regs.save(w);
        self.interp.pc.save(w);
        self.interp.mem.save(w);
        self.interp.out.save(w);
        self.pending.save(w);
        self.restarts.save(w);
        self.traps.save(w);
        self.out.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let fp = u64::load(r)?;
        let want = self.prog.fingerprint();
        if fp != want {
            return Err(r.err(format_args!(
                "program fingerprint {fp:016x} != expected {want:016x}"
            )));
        }
        self.interp.regs = Persist::load(r)?;
        self.interp.pc = Persist::load(r)?;
        self.interp.mem = Persist::load(r)?;
        self.interp.out = Persist::load(r)?;
        self.pending = Persist::load(r)?;
        self.restarts = Persist::load(r)?;
        self.traps = Persist::load(r)?;
        self.out = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_source(name: &str, seed: u32) -> RvTraceSource {
        RvTraceSource::new(programs::build(name, seed).unwrap())
    }

    #[test]
    fn program_spec_round_trips_through_display() {
        let specs = [
            ProgramSpec::suite("sort", 1),
            ProgramSpec::suite("hashjoin", 0xdead_beef),
            ProgramSpec::Elf {
                path: "/tmp/a.elf".into(),
            },
            ProgramSpec::Bin {
                path: "payload.bin".into(),
                entry: 0x100,
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<ProgramSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(
            "rv:sort".parse::<ProgramSpec>().unwrap(),
            ProgramSpec::suite("sort", 1)
        );
        assert_eq!(
            "rv:sort@12".parse::<ProgramSpec>().unwrap(),
            ProgramSpec::suite("sort", 12)
        );
        for bad in [
            "sort@1",
            "rv:",
            "rv:elf:",
            "rv:bin:x",
            "rv:sort@zz",
            "rv:a b@1",
        ] {
            assert!(bad.parse::<ProgramSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_suite_name_fails_to_resolve() {
        let err = ProgramSpec::suite("nope", 1).resolve().unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn every_uop_validates_and_the_pc_chain_is_consistent() {
        for name in programs::names() {
            let mut src = suite_source(name, 0xc0ffee);
            let mut prev: Option<MicroOp> = None;
            for i in 0..50_000u32 {
                let u = src.next_uop();
                u.validate()
                    .unwrap_or_else(|e| panic!("{name} µ-op {i} invalid: {e} ({u})"));
                if let Some(p) = prev {
                    // Either the cracked pair continues at the same PC, or
                    // control flow follows the previous µ-op's successor.
                    assert!(
                        u.pc == p.pc || u.pc == p.successor_pc(),
                        "{name} µ-op {i}: {p} then {u}"
                    );
                }
                prev = Some(u);
            }
            assert!(src.restarts() >= 1, "{name} never restarted in 50k µ-ops");
            assert_eq!(src.traps(), 0, "{name} trapped");
        }
    }

    #[test]
    fn x0_never_appears_as_a_source() {
        let mut src = suite_source("sort", 3);
        for _ in 0..20_000 {
            let u = src.next_uop();
            for s in u.sources() {
                assert!(s.reg.get() != 0, "x0 source in {u}");
            }
        }
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_stream() {
        let mut src = suite_source("hashjoin", 0x77);
        // Stop mid-run, deliberately not at an instruction boundary.
        for _ in 0..12_345 {
            let _ = src.next_uop();
        }
        let mut w = Writer::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = suite_source("hashjoin", 0x77);
        let mut r = Reader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        for i in 0..20_000u32 {
            assert_eq!(src.next_uop(), restored.next_uop(), "diverged at {i}");
        }
        assert_eq!(src.restarts(), restored.restarts());
    }

    #[test]
    fn snapshot_binds_to_the_program_fingerprint() {
        let src = suite_source("sort", 1);
        let mut w = Writer::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = suite_source("lz", 1);
        let mut r = Reader::new(&bytes);
        let err = other.restore_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }
}
