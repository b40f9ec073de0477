//! Differential coverage of the lowered block ops: every [`Effect`]
//! variant must execute identically through the block engine's
//! `exec_effect`, the megablock trace tier above it, and the step
//! engine's `exec_insn` — over randomized register states and the corner
//! cases that bite (`i32::MIN / -1`, divide by zero, carry chains,
//! trailing `imm` prefixes).
//!
//! Each case is a short straight-line body (so the block engine fuses
//! it into a single superblock) followed by the exit-port store; the
//! trace, block, and step engines run it from the same randomized CPU
//! state and must agree on trace, stats, outcome, CPU, and memory.

use mb_isa::{Assembler, Cond, Insn, MbFeatures, MemSize, Reg, ShiftKind};
use mb_sim::{Engine, MbConfig, System, EXIT_PORT_BASE};

// `Reg`'s registers are associated constants, which `use` cannot glob —
// local aliases keep the instruction tables readable.
const R0: Reg = Reg::R0;
const R3: Reg = Reg::R3;
const R4: Reg = Reg::R4;
const R5: Reg = Reg::R5;
const R6: Reg = Reg::R6;
const R7: Reg = Reg::R7;
const R8: Reg = Reg::R8;
const R9: Reg = Reg::R9;
const R10: Reg = Reg::R10;
const R11: Reg = Reg::R11;
const R12: Reg = Reg::R12;
const R13: Reg = Reg::R13;
const R14: Reg = Reg::R14;
const R15: Reg = Reg::R15;
const R16: Reg = Reg::R16;
const R17: Reg = Reg::R17;
const R18: Reg = Reg::R18;
const R19: Reg = Reg::R19;
const R20: Reg = Reg::R20;
const R21: Reg = Reg::R21;
const R22: Reg = Reg::R22;
const R23: Reg = Reg::R23;
const R24: Reg = Reg::R24;
const R25: Reg = Reg::R25;
const R26: Reg = Reg::R26;
const R27: Reg = Reg::R27;
const R31: Reg = Reg::R31;

/// Paper features plus the divider, so `Idiv` is executable.
fn features() -> MbFeatures {
    MbFeatures { divider: true, ..MbFeatures::paper_default() }
}

/// splitmix64: deterministic randomized register states without a rand
/// dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn word(&mut self) -> u32 {
        self.next() as u32
    }
}

/// Builds `body` followed by the exit-port store.
fn program(body: &[Insn]) -> mb_isa::Program {
    let mut a = Assembler::new(0);
    for insn in body {
        a.push(*insn);
    }
    a.li(Reg::R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(Reg::R0, Reg::R31, 0));
    a.finish().unwrap()
}

/// Runs one body on one engine from the seeded register state.
fn run_one(
    config: MbConfig,
    p: &mb_isa::Program,
    seed: u64,
) -> (mb_sim::Outcome, mb_sim::Trace, System) {
    let mut sys = System::new(config);
    sys.load_program(p).unwrap();
    let mut rng = Rng(seed);
    // Randomize every writable register except r31 (the exit base the
    // program sets itself) — memory cases pin their base registers via
    // `li` inside the body, so addresses stay valid.
    for n in 1..=30u8 {
        sys.cpu_mut().set_reg(Reg::new(n), rng.word());
    }
    sys.cpu_mut().set_carry(rng.next() & 1 != 0);
    let (out, trace) = sys.run_traced(1_000_000).unwrap();
    assert!(out.exited(), "differential case must exit (pc {:#x})", sys.cpu().pc());
    (out, trace, sys)
}

/// Runs one body under the trace and block engines across several
/// seeds and asserts results bit-identical to the step engine's.
fn differential(name: &str, body: &[Insn]) {
    let p = program(body);
    let config = |engine| MbConfig::paper_default().with_features(features()).with_engine(engine);
    for seed in [1u64, 2, 3, 0xDEAD_BEEF, 0x1234_5678_9ABC_DEF0] {
        let (out_s, trace_s, sys_s) = run_one(config(Engine::Step), &p, seed);
        for engine in [Engine::Trace, Engine::Block] {
            let (out, trace, sys) = run_one(config(engine), &p, seed);
            assert_eq!(out, out_s, "{name} seed {seed}: {engine} outcome diverged");
            assert_eq!(trace, trace_s, "{name} seed {seed}: {engine} events diverged");
            assert_eq!(sys.cpu(), sys_s.cpu(), "{name} seed {seed}: {engine} CPU diverged");
            assert_eq!(sys.stats(), sys_s.stats(), "{name} seed {seed}: {engine} stats diverged");
            for addr in (0x200..0x240).step_by(4) {
                assert_eq!(
                    sys.dmem().read_word(addr).unwrap(),
                    sys_s.dmem().read_word(addr).unwrap(),
                    "{name} seed {seed}: {engine} dmem diverged at {addr:#x}"
                );
            }
        }
    }
}

#[test]
fn add_and_rsub_carry_matrix() {
    // All four K/C combinations of Add and Rsub, chained so carries
    // written by one feed the next.
    differential(
        "add_rsub",
        &[
            Insn::Add { rd: R3, ra: R4, rb: R5, keep_carry: false, use_carry: false },
            Insn::Add { rd: R6, ra: R7, rb: R8, keep_carry: false, use_carry: true },
            Insn::Add { rd: R9, ra: R10, rb: R11, keep_carry: true, use_carry: true },
            Insn::Add { rd: R12, ra: R13, rb: R14, keep_carry: true, use_carry: false },
            Insn::Rsub { rd: R15, ra: R16, rb: R17, keep_carry: false, use_carry: false },
            Insn::Rsub { rd: R18, ra: R19, rb: R20, keep_carry: false, use_carry: true },
            Insn::Rsub { rd: R21, ra: R22, rb: R23, keep_carry: true, use_carry: true },
            Insn::Rsub { rd: R24, ra: R25, rb: R26, keep_carry: true, use_carry: false },
        ],
    );
}

#[test]
fn immediate_add_rsub_with_and_without_prefix() {
    differential(
        "addi_rsubi",
        &[
            Insn::Addi { rd: R3, ra: R4, imm: -17, keep_carry: false, use_carry: false },
            Insn::Addi { rd: R5, ra: R6, imm: 12345, keep_carry: false, use_carry: true },
            Insn::Imm { imm: 0x1234 },
            Insn::Addi { rd: R7, ra: R8, imm: 0x5678, keep_carry: true, use_carry: false },
            Insn::Rsubi { rd: R9, ra: R10, imm: -2, keep_carry: false, use_carry: false },
            Insn::Imm { imm: -1 },
            Insn::Rsubi { rd: R11, ra: R12, imm: 7, keep_carry: true, use_carry: true },
        ],
    );
}

#[test]
fn compare_signed_and_unsigned() {
    differential(
        "cmp",
        &[
            Insn::Cmp { rd: R3, ra: R4, rb: R5, unsigned: false },
            Insn::Cmp { rd: R6, ra: R7, rb: R8, unsigned: true },
            // Equal operands: the subtraction is zero and only the
            // forced sign bit distinguishes the encodings.
            Insn::Cmp { rd: R9, ra: R10, rb: R10, unsigned: false },
            Insn::Cmp { rd: R11, ra: R10, rb: R10, unsigned: true },
        ],
    );
}

#[test]
fn multiply_register_and_immediate() {
    differential(
        "mul",
        &[
            Insn::Mul { rd: R3, ra: R4, rb: R5 },
            Insn::Muli { rd: R6, ra: R7, imm: -3 },
            Insn::Imm { imm: 0x0001 },
            Insn::Muli { rd: R8, ra: R9, imm: 0x0001 },
        ],
    );
}

#[test]
fn divide_including_zero_and_overflow() {
    differential(
        "idiv",
        &[
            Insn::Idiv { rd: R3, ra: R4, rb: R5, unsigned: false },
            Insn::Idiv { rd: R6, ra: R7, rb: R8, unsigned: true },
            // Divide by zero (ra = r0): MicroBlaze-style quotient 0.
            Insn::Idiv { rd: R9, ra: R0, rb: R10, unsigned: false },
            Insn::Idiv { rd: R11, ra: R0, rb: R10, unsigned: true },
        ],
    );
}

#[test]
fn divide_min_by_minus_one_wraps() {
    let body = [
        Insn::addik(R4, R0, -1),
        Insn::Imm { imm: i16::MIN }, // r5 = 0x8000_0000 = i32::MIN
        Insn::addik(R5, R0, 0),
        // rd = rb ÷ ra = i32::MIN / -1: wraps to i32::MIN, must not trap.
        Insn::Idiv { rd: R3, ra: R4, rb: R5, unsigned: false },
        Insn::Idiv { rd: R6, ra: R4, rb: R5, unsigned: true },
    ];
    differential("idiv_min", &body);
}

#[test]
fn shifts_logic_and_extends() {
    differential(
        "shifts_logic",
        &[
            Insn::Bs { rd: R3, ra: R4, rb: R5, kind: ShiftKind::LogicalLeft },
            Insn::Bs { rd: R6, ra: R7, rb: R8, kind: ShiftKind::LogicalRight },
            Insn::Bs { rd: R9, ra: R10, rb: R11, kind: ShiftKind::ArithmeticRight },
            Insn::Bsi { rd: R12, ra: R13, amount: 7, kind: ShiftKind::LogicalLeft },
            Insn::Bsi { rd: R14, ra: R15, amount: 31, kind: ShiftKind::ArithmeticRight },
            Insn::Bsi { rd: R16, ra: R17, amount: 0, kind: ShiftKind::LogicalRight },
            Insn::Sra { rd: R18, ra: R19 },
            Insn::Src { rd: R20, ra: R21 },
            Insn::Srl { rd: R22, ra: R23 },
            Insn::Or { rd: R3, ra: R4, rb: R5 },
            Insn::And { rd: R6, ra: R7, rb: R8 },
            Insn::Xor { rd: R9, ra: R10, rb: R11 },
            Insn::Andn { rd: R12, ra: R13, rb: R14 },
            Insn::Ori { rd: R15, ra: R16, imm: 0x0F0F_u16 as i16 },
            Insn::Andi { rd: R17, ra: R18, imm: -256 },
            Insn::Xori { rd: R19, ra: R20, imm: 0x33CC_u16 as i16 },
            Insn::Andni { rd: R21, ra: R22, imm: 0x00FF },
            Insn::Sext8 { rd: R24, ra: R25 },
            Insn::Sext16 { rd: R26, ra: R27 },
        ],
    );
}

#[test]
fn loads_and_stores_every_size() {
    let mut body = vec![
        Insn::addik(R8, R0, 0x200), // pinned base: random registers never form the address
        Insn::addik(R9, R0, 0x10),  // pinned Type-A offset
    ];
    body.extend([
        Insn::Storei { size: MemSize::Word, rd: R3, ra: R8, imm: 0 },
        Insn::Storei { size: MemSize::Half, rd: R4, ra: R8, imm: 4 },
        Insn::Storei { size: MemSize::Byte, rd: R5, ra: R8, imm: 6 },
        Insn::Store { size: MemSize::Word, rd: R6, ra: R8, rb: R9 },
        Insn::Loadi { size: MemSize::Word, rd: R10, ra: R8, imm: 0 },
        Insn::Loadi { size: MemSize::Half, rd: R11, ra: R8, imm: 4 },
        Insn::Loadi { size: MemSize::Byte, rd: R12, ra: R8, imm: 6 },
        Insn::Load { size: MemSize::Word, rd: R13, ra: R8, rb: R9 },
        // imm-prefixed (fused) addressing on both a load and a store.
        Insn::Imm { imm: 0 },
        Insn::Storei { size: MemSize::Word, rd: R7, ra: R8, imm: 0x20 },
        Insn::Imm { imm: 0 },
        Insn::Loadi { size: MemSize::Word, rd: R14, ra: R8, imm: 0x20 },
    ]);
    differential("mem", &body);
}

#[test]
fn trailing_imm_before_register_branch_stays_architectural() {
    // A loop body ending `imm` + register-target backward branch: the
    // branch can never chain into a guard, so the block ends with an
    // architectural (`ImmTrailing`) prefix the stepped branch consumes.
    let mut a = Assembler::new(0);
    a.li(R3, 5);
    a.li(R10, -12i32); // backward offset for the register branch
    a.label("top");
    a.push(Insn::addik(R4, R4, 9));
    a.push(Insn::addik(R3, R3, -1));
    a.push(Insn::Imm { imm: 0x7 });
    a.push(Insn::Bc { cond: Cond::Ne, ra: R3, rb: R10, delay: false });
    a.li(R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(R0, R31, 0));
    let p = a.finish().unwrap();

    let run = |config: MbConfig| {
        let mut sys = System::new(config);
        sys.load_program(&p).unwrap();
        let (out, trace) = sys.run_traced(1_000_000).unwrap();
        assert!(out.exited());
        (out, trace, sys)
    };
    let (out_t, trace_t, sys_t) = run(MbConfig::paper_default());
    let (out_s, trace_s, sys_s) = run(MbConfig::paper_default().with_engine(Engine::Step));
    assert_eq!(out_t, out_s);
    assert_eq!(trace_t, trace_s);
    assert_eq!(sys_t.cpu(), sys_s.cpu());
    assert_eq!(sys_t.stats(), sys_s.stats());
    assert_eq!(sys_t.cpu().reg(R4), 45);
}

#[test]
fn trailing_imm_fused_into_a_loop_guard() {
    // A redundant `imm -1` before the backward `bnei`: the prefix folds
    // into the guard's statically-resolved target, and the trace still
    // loops — bit-identically to the step engine consuming the prefix
    // architecturally every iteration.
    let mut a = Assembler::new(0);
    a.li(R3, 6); // one word
                 // top = 4:
    a.push(Insn::addik(R4, R4, 2)); // 4
    a.push(Insn::addik(R3, R3, -1)); // 8
    a.push(Insn::Imm { imm: -1 }); // 12
    a.push(Insn::Bci { cond: Cond::Ne, ra: R3, imm: -12, delay: false }); // 16 -> 4
    a.li(R31, EXIT_PORT_BASE as i32);
    a.push(Insn::swi(R0, R31, 0));
    let p = a.finish().unwrap();

    let run = |config: MbConfig| {
        let mut sys = System::new(config);
        sys.load_program(&p).unwrap();
        let (out, trace) = sys.run_traced(1_000_000).unwrap();
        assert!(out.exited());
        (out, trace, sys)
    };
    let (out_t, trace_t, sys_t) = run(MbConfig::paper_default());
    let (out_s, trace_s, sys_s) = run(MbConfig::paper_default().with_engine(Engine::Step));
    assert_eq!(out_t, out_s);
    assert_eq!(trace_t, trace_s);
    assert_eq!(sys_t.cpu(), sys_s.cpu());
    assert_eq!(sys_t.stats(), sys_s.stats());
    assert_eq!(sys_t.cpu().reg(R4), 12);
}
