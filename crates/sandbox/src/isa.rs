//! The sandbox instruction set: a small stack machine over `u64` values.
//!
//! The design deliberately mirrors WebAssembly's shape (stack machine,
//! linear memory, explicit host imports, validated modules) at a fraction of
//! the complexity — this crate is the reproduction's stand-in for the Wasm
//! sandbox of the paper's prototype (§5). Control flow uses validated
//! absolute jump targets instead of Wasm's structured blocks; everything
//! else (bounds-checked memory, fuel, host boundary) carries over.

use distrust_wire::wire_enum;

/// One instruction. Operands are immediate; dynamic inputs come from the
/// value stack (documented per variant as `[inputs] -> [outputs]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `[] -> [imm]` — push an immediate.
    Const(u64),
    /// `[] -> [local]` — read local/parameter slot.
    LocalGet(u16),
    /// `[v] -> []` — write local/parameter slot.
    LocalSet(u16),
    /// `[a b] -> [a+b]` (wrapping).
    Add,
    /// `[a b] -> [a-b]` (wrapping).
    Sub,
    /// `[a b] -> [a*b]` (wrapping).
    Mul,
    /// `[a b] -> [a/b]`; traps on `b == 0`.
    DivU,
    /// `[a b] -> [a%b]`; traps on `b == 0`.
    RemU,
    /// `[a b] -> [a&b]`.
    And,
    /// `[a b] -> [a|b]`.
    Or,
    /// `[a b] -> [a^b]`.
    Xor,
    /// `[a b] -> [a << (b&63)]`.
    Shl,
    /// `[a b] -> [a >> (b&63)]` (logical).
    ShrU,
    /// `[a b] -> [rotr64(a, b&63)]` — hash kernels want this.
    Rotr,
    /// `[a b] -> [a==b ? 1 : 0]`.
    Eq,
    /// `[a b] -> [a!=b ? 1 : 0]`.
    Ne,
    /// `[a b] -> [a<b ? 1 : 0]` (unsigned).
    LtU,
    /// `[a b] -> [a>b ? 1 : 0]`.
    GtU,
    /// `[a b] -> [a<=b ? 1 : 0]`.
    LeU,
    /// `[a b] -> [a>=b ? 1 : 0]`.
    GeU,
    /// `[c] -> []` + jump to target when `c == 0`.
    JumpIfZero(u32),
    /// `[c] -> []` + jump to target when `c != 0`.
    JumpIfNonZero(u32),
    /// `[] -> []` + unconditional jump.
    Jump(u32),
    /// `[args..] -> [ret?]` — call module function by index.
    Call(u16),
    /// `[args..] -> [rets..]` — call imported host function by index.
    HostCall(u16),
    /// Return from the current function (top of stack is the return value
    /// when the function declares one).
    Return,
    /// `[addr] -> [byte]` — load one byte at `addr + offset`.
    Load8(u32),
    /// `[addr] -> [word]` — load little-endian u64 at `addr + offset`.
    Load64(u32),
    /// `[addr v] -> []` — store low byte of `v` at `addr + offset`.
    Store8(u32),
    /// `[addr v] -> []` — store little-endian u64 at `addr + offset`.
    Store64(u32),
    /// `[] -> [pages]` — current memory size in 64 KiB pages.
    MemSize,
    /// `[delta] -> [old_pages or u64::MAX]` — grow memory.
    MemGrow,
    /// `[v] -> []`.
    Drop,
    /// `[v] -> [v v]`.
    Dup,
    /// `[a b] -> [b a]`.
    Swap,
    /// `[c a b] -> [c != 0 ? a : b]`.
    Select,
    /// Abort execution with an explicit trap.
    Trap,
}

wire_enum!(Instr {
    0x01 => Const(imm),
    0x02 => LocalGet(local),
    0x03 => LocalSet(local),
    0x10 => Add,
    0x11 => Sub,
    0x12 => Mul,
    0x13 => DivU,
    0x14 => RemU,
    0x15 => And,
    0x16 => Or,
    0x17 => Xor,
    0x18 => Shl,
    0x19 => ShrU,
    0x1a => Rotr,
    0x20 => Eq,
    0x21 => Ne,
    0x22 => LtU,
    0x23 => GtU,
    0x24 => LeU,
    0x25 => GeU,
    0x30 => JumpIfZero(target),
    0x31 => JumpIfNonZero(target),
    0x32 => Jump(target),
    0x33 => Call(function),
    0x34 => HostCall(import),
    0x35 => Return,
    0x40 => Load8(offset),
    0x41 => Load64(offset),
    0x42 => Store8(offset),
    0x43 => Store64(offset),
    0x44 => MemSize,
    0x45 => MemGrow,
    0x50 => Drop,
    0x51 => Dup,
    0x52 => Swap,
    0x53 => Select,
    0x5f => Trap,
} retired []);

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_wire::codec::{Decode, Encode};

    fn all_variants() -> Vec<Instr> {
        vec![
            Instr::Const(u64::MAX),
            Instr::LocalGet(7),
            Instr::LocalSet(0),
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::DivU,
            Instr::RemU,
            Instr::And,
            Instr::Or,
            Instr::Xor,
            Instr::Shl,
            Instr::ShrU,
            Instr::Rotr,
            Instr::Eq,
            Instr::Ne,
            Instr::LtU,
            Instr::GtU,
            Instr::LeU,
            Instr::GeU,
            Instr::JumpIfZero(3),
            Instr::JumpIfNonZero(4),
            Instr::Jump(5),
            Instr::Call(1),
            Instr::HostCall(2),
            Instr::Return,
            Instr::Load8(16),
            Instr::Load64(24),
            Instr::Store8(0),
            Instr::Store64(8),
            Instr::MemSize,
            Instr::MemGrow,
            Instr::Drop,
            Instr::Dup,
            Instr::Swap,
            Instr::Select,
            Instr::Trap,
        ]
    }

    #[test]
    fn every_instruction_round_trips() {
        for instr in all_variants() {
            let wire = instr.to_wire();
            assert_eq!(Instr::from_wire(&wire), Ok(instr), "{instr:?}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Instr::from_wire(&[0xff]).is_err());
        assert!(Instr::from_wire(&[0x00]).is_err());
    }

    #[test]
    fn truncated_operand_rejected() {
        let mut wire = Instr::Const(42).to_wire();
        wire.truncate(4);
        assert!(Instr::from_wire(&wire).is_err());
    }

    #[test]
    fn opcodes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for instr in all_variants() {
            let op = instr.to_wire()[0];
            assert!(seen.insert(op), "duplicate opcode 0x{op:02x} for {instr:?}");
        }
    }
}
