//! The sandbox interpreter: isolated linear memory, fuel metering, bounded
//! stacks, and a host-call boundary.
//!
//! §4.1 of the paper: "Sandboxing the application code ensures that the
//! executed code cannot 'escape' the sandbox and have an effect on the
//! system outside the sandbox (i.e. the framework)." The VM realizes that
//! guarantee in three ways:
//!
//! 1. **Memory isolation** — guests address only their own bounds-checked
//!    linear memory; there are no pointers into the host.
//! 2. **Fuel metering** — every instruction consumes fuel; a malicious or
//!    buggy update cannot wedge the framework (which must stay responsive
//!    to deliver update notices).
//! 3. **Explicit host boundary** — all effects go through imports the
//!    framework chose to expose; host functions see a bounds-checked view
//!    of guest memory, never the reverse.

use crate::isa::Instr;
use crate::module::{Function, Module, PAGE_SIZE};

/// Execution aborts (traps). Traps are contained: the host observes an
/// error value, the framework keeps running — the "escape-proof" property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Fuel exhausted.
    OutOfFuel,
    /// Memory access outside linear memory.
    OutOfBounds { addr: u64, len: u64 },
    /// Value stack exceeded its limit.
    StackOverflow,
    /// An instruction needed more operands than the stack holds.
    StackUnderflow,
    /// Call depth exceeded.
    CallDepthExceeded,
    /// Integer division/remainder by zero.
    DivisionByZero,
    /// Explicit `Trap` instruction.
    Explicit,
    /// Function index invalid at runtime (defense in depth; the validator
    /// rejects these statically).
    InvalidFunction(u32),
    /// Export name not found.
    UnknownExport(String),
    /// Wrong number of arguments for the invoked export.
    ArityMismatch { expected: u16, got: usize },
    /// Host import index invalid.
    InvalidHostCall(u16),
    /// The host function itself failed.
    Host(String),
    /// Module failed validation.
    Invalid(String),
    /// Function body ended without `Return`.
    FellOffEnd,
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::OutOfFuel => write!(f, "out of fuel"),
            Self::OutOfBounds { addr, len } => {
                write!(f, "memory access out of bounds: addr={addr} len={len}")
            }
            Self::StackOverflow => write!(f, "value stack overflow"),
            Self::StackUnderflow => write!(f, "value stack underflow"),
            Self::CallDepthExceeded => write!(f, "call depth exceeded"),
            Self::DivisionByZero => write!(f, "division by zero"),
            Self::Explicit => write!(f, "explicit trap"),
            Self::InvalidFunction(i) => write!(f, "invalid function index {i}"),
            Self::UnknownExport(name) => write!(f, "unknown export {name:?}"),
            Self::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected} args, got {got}")
            }
            Self::InvalidHostCall(i) => write!(f, "invalid host import {i}"),
            Self::Host(msg) => write!(f, "host error: {msg}"),
            Self::Invalid(msg) => write!(f, "invalid module: {msg}"),
            Self::FellOffEnd => write!(f, "function ended without return"),
        }
    }
}

impl std::error::Error for Trap {}

/// Bounds-checked guest memory handed to host functions.
pub struct Memory {
    bytes: Vec<u8>,
    max_pages: u32,
}

impl Memory {
    fn new(initial_pages: u32, max_pages: u32) -> Self {
        Self {
            bytes: vec![0u8; initial_pages as usize * PAGE_SIZE],
            max_pages,
        }
    }

    /// Current size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Current size in pages.
    pub fn pages(&self) -> u32 {
        (self.bytes.len() / PAGE_SIZE) as u32
    }

    /// Reads `len` bytes at `addr`.
    pub fn read(&self, addr: u64, len: u64) -> Result<&[u8], Trap> {
        let end = addr
            .checked_add(len)
            .ok_or(Trap::OutOfBounds { addr, len })?;
        if end as usize > self.bytes.len() {
            return Err(Trap::OutOfBounds { addr, len });
        }
        Ok(&self.bytes[addr as usize..end as usize])
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), Trap> {
        let len = data.len() as u64;
        let end = addr
            .checked_add(len)
            .ok_or(Trap::OutOfBounds { addr, len })?;
        if end as usize > self.bytes.len() {
            return Err(Trap::OutOfBounds { addr, len });
        }
        self.bytes[addr as usize..end as usize].copy_from_slice(data);
        Ok(())
    }

    fn load8(&self, addr: u64) -> Result<u64, Trap> {
        Ok(self.read(addr, 1)?[0] as u64)
    }

    fn load64(&self, addr: u64) -> Result<u64, Trap> {
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn store8(&mut self, addr: u64, v: u64) -> Result<(), Trap> {
        self.write(addr, &[v as u8])
    }

    fn store64(&mut self, addr: u64, v: u64) -> Result<(), Trap> {
        self.write(addr, &v.to_le_bytes())
    }

    fn grow(&mut self, delta_pages: u64) -> u64 {
        let current = self.pages() as u64;
        let Ok(delta32) = u32::try_from(delta_pages) else {
            return u64::MAX;
        };
        let new_pages = current + delta32 as u64;
        if new_pages > self.max_pages as u64 {
            return u64::MAX;
        }
        self.bytes.resize(new_pages as usize * PAGE_SIZE, 0);
        current
    }
}

/// Host functions exposed to the guest. Implementations receive the
/// arguments and a mutable, bounds-checked view of guest memory.
pub trait Host {
    /// Invokes import `index` with `args`; returns the result values
    /// (length must match the import's declared `returns`).
    fn call(&mut self, index: u16, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String>;
}

/// A host with no imports (pure-guest modules like the SHA-256 kernel).
pub struct NoHost;

impl Host for NoHost {
    fn call(
        &mut self,
        index: u16,
        _args: &[u64],
        _memory: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        Err(format!("no host imports available (call to {index})"))
    }
}

/// Execution limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum instructions executed (base cost 1 each; memory and call
    /// instructions cost extra).
    pub fuel: u64,
    /// Value stack limit (entries).
    pub max_stack: usize,
    /// Call depth limit (frames).
    pub max_call_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            fuel: 500_000_000,
            max_stack: 64 * 1024,
            max_call_depth: 256,
        }
    }
}

/// Extra fuel charged for memory instructions (they touch RAM) and calls.
const MEM_FUEL: u64 = 2;
const CALL_FUEL: u64 = 8;
const HOST_FUEL: u64 = 32;

/// An instantiated module ready to execute exports.
pub struct Instance {
    module: Module,
    /// Guest linear memory (persists across export invocations, like a Wasm
    /// instance — the threshold-signer app keeps state here).
    pub memory: Memory,
    limits: Limits,
    /// Fuel consumed by the most recent `invoke` (for the overhead bench).
    pub last_fuel_used: u64,
}

impl Instance {
    /// Validates and instantiates a module (copies data segments).
    pub fn new(module: Module, limits: Limits) -> Result<Self, Trap> {
        module
            .validate()
            .map_err(|e| Trap::Invalid(e.to_string()))?;
        let mut memory = Memory::new(module.initial_pages, module.max_pages);
        for seg in &module.data {
            memory
                .write(seg.offset as u64, &seg.bytes)
                .map_err(|_| Trap::Invalid("data segment out of range".into()))?;
        }
        Ok(Self {
            module,
            memory,
            limits,
            last_fuel_used: 0,
        })
    }

    /// The module this instance runs.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Invokes an export by name.
    pub fn invoke<H: Host>(
        &mut self,
        export: &str,
        args: &[u64],
        host: &mut H,
    ) -> Result<Option<u64>, Trap> {
        let func_idx = self
            .module
            .export(export)
            .ok_or_else(|| Trap::UnknownExport(export.to_string()))?;
        self.invoke_index(func_idx, args, host)
    }

    /// Invokes a function by index.
    pub fn invoke_index<H: Host>(
        &mut self,
        func_idx: u32,
        args: &[u64],
        host: &mut H,
    ) -> Result<Option<u64>, Trap> {
        let func = self
            .module
            .functions
            .get(func_idx as usize)
            .ok_or(Trap::InvalidFunction(func_idx))?;
        if args.len() != func.params as usize {
            return Err(Trap::ArityMismatch {
                expected: func.params,
                got: args.len(),
            });
        }
        let mut exec = Executor {
            module: &self.module,
            memory: &mut self.memory,
            host,
            fuel: self.limits.fuel,
            max_stack: self.limits.max_stack,
            max_call_depth: self.limits.max_call_depth,
            stack: Vec::with_capacity(256),
            locals: Vec::with_capacity(64),
        };
        let result = exec.call_function(func_idx, args);
        self.last_fuel_used = self.limits.fuel - exec.fuel;
        result
    }
}

/// Computes `base + offset`, trapping on address-space wrap-around instead
/// of silently aliasing low guest memory.
#[inline]
fn effective_addr(base: u64, off: u32) -> Result<u64, Trap> {
    base.checked_add(off as u64).ok_or(Trap::OutOfBounds {
        addr: base,
        len: off as u64,
    })
}

/// One guest function activation: its code, where its parameters and locals
/// start on the executor's shared locals vector, and its program counter.
/// Lives on the heap (in the executor's frame vector), not the host stack.
struct Frame<'m> {
    func: &'m Function,
    base: usize,
    ip: usize,
}

struct Executor<'m, H: Host> {
    module: &'m Module,
    memory: &'m mut Memory,
    host: &'m mut H,
    fuel: u64,
    max_stack: usize,
    max_call_depth: usize,
    stack: Vec<u64>,
    /// Parameters and locals of every live activation, innermost last.
    locals: Vec<u64>,
}

impl<'m, H: Host> Executor<'m, H> {
    fn charge(&mut self, cost: u64) -> Result<(), Trap> {
        if self.fuel < cost {
            self.fuel = 0;
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= cost;
        Ok(())
    }

    fn push(&mut self, v: u64) -> Result<(), Trap> {
        if self.stack.len() >= self.max_stack {
            return Err(Trap::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn pop(&mut self) -> Result<u64, Trap> {
        self.stack.pop().ok_or(Trap::StackUnderflow)
    }

    /// The index where the top `n` values of the stack start.
    fn operands(&self, n: u16) -> Result<usize, Trap> {
        self.stack
            .len()
            .checked_sub(n as usize)
            .ok_or(Trap::StackUnderflow)
    }

    /// A fresh activation of `func`: its arguments move from the value stack
    /// onto the locals vector, the declared locals follow zeroed (the slots
    /// may hold what an earlier activation left there), execution starts at
    /// the first instruction.
    fn enter(&mut self, func: &'m Function) -> Result<Frame<'m>, Trap> {
        let split = self.operands(func.params)?;
        let base = self.locals.len();
        self.locals.extend_from_slice(&self.stack[split..]);
        self.stack.truncate(split);
        self.locals
            .resize(self.locals.len() + func.locals as usize, 0);
        Ok(Frame { func, base, ip: 0 })
    }

    /// Runs `func_idx` to completion on an explicit frame stack.
    ///
    /// The interpreter is deliberately iterative: guest call depth consumes
    /// heap (one [`Frame`] and its slots per activation), never host stack,
    /// so a deeply-recursive guest can only trap with
    /// [`Trap::CallDepthExceeded`] — it cannot overflow the host thread's
    /// stack and abort the process.
    fn call_function(&mut self, func_idx: u32, args: &[u64]) -> Result<Option<u64>, Trap> {
        let module = self.module;
        let root: &Function = module
            .functions
            .get(func_idx as usize)
            .ok_or(Trap::InvalidFunction(func_idx))?;
        if self.max_call_depth == 0 {
            return Err(Trap::CallDepthExceeded);
        }
        self.stack.extend_from_slice(args);
        let mut frames = vec![self.enter(root)?];
        loop {
            let frame = frames.last_mut().expect("at least the root frame");
            let func = frame.func;
            let Some(instr) = func.code.get(frame.ip) else {
                return Err(Trap::FellOffEnd);
            };
            self.charge(1)?;
            frame.ip += 1;
            match *instr {
                Instr::Const(v) => self.push(v)?,
                Instr::LocalGet(i) => {
                    let slot = self.locals.get(frame.base + i as usize);
                    self.push(*slot.ok_or(Trap::StackUnderflow)?)?;
                }
                Instr::LocalSet(i) => {
                    let v = self.pop()?;
                    let slot = self.locals.get_mut(frame.base + i as usize);
                    *slot.ok_or(Trap::StackUnderflow)? = v;
                }
                Instr::Add => self.binop(|a, b| Ok(a.wrapping_add(b)))?,
                Instr::Sub => self.binop(|a, b| Ok(a.wrapping_sub(b)))?,
                Instr::Mul => self.binop(|a, b| Ok(a.wrapping_mul(b)))?,
                Instr::DivU => self.binop(|a, b| a.checked_div(b).ok_or(Trap::DivisionByZero))?,
                Instr::RemU => self.binop(|a, b| a.checked_rem(b).ok_or(Trap::DivisionByZero))?,
                Instr::And => self.binop(|a, b| Ok(a & b))?,
                Instr::Or => self.binop(|a, b| Ok(a | b))?,
                Instr::Xor => self.binop(|a, b| Ok(a ^ b))?,
                Instr::Shl => self.binop(|a, b| Ok(a << (b & 63)))?,
                Instr::ShrU => self.binop(|a, b| Ok(a >> (b & 63)))?,
                Instr::Rotr => self.binop(|a, b| Ok(a.rotate_right((b & 63) as u32)))?,
                Instr::Eq => self.binop(|a, b| Ok((a == b) as u64))?,
                Instr::Ne => self.binop(|a, b| Ok((a != b) as u64))?,
                Instr::LtU => self.binop(|a, b| Ok((a < b) as u64))?,
                Instr::GtU => self.binop(|a, b| Ok((a > b) as u64))?,
                Instr::LeU => self.binop(|a, b| Ok((a <= b) as u64))?,
                Instr::GeU => self.binop(|a, b| Ok((a >= b) as u64))?,
                Instr::JumpIfZero(t) => {
                    let c = self.pop()?;
                    if c == 0 {
                        frame.ip = t as usize;
                    }
                }
                Instr::JumpIfNonZero(t) => {
                    let c = self.pop()?;
                    if c != 0 {
                        frame.ip = t as usize;
                    }
                }
                Instr::Jump(t) => frame.ip = t as usize,
                Instr::Call(target) => {
                    self.charge(CALL_FUEL)?;
                    if frames.len() >= self.max_call_depth {
                        return Err(Trap::CallDepthExceeded);
                    }
                    let callee = module
                        .functions
                        .get(target as usize)
                        .ok_or(Trap::InvalidFunction(target as u32))?;
                    frames.push(self.enter(callee)?);
                }
                Instr::HostCall(index) => {
                    self.charge(HOST_FUEL)?;
                    let sig = self
                        .module
                        .imports
                        .get(index as usize)
                        .ok_or(Trap::InvalidHostCall(index))?;
                    // The host reads its arguments where they already are.
                    let split = self.operands(sig.params)?;
                    let results = self
                        .host
                        .call(index, &self.stack[split..], self.memory)
                        .map_err(Trap::Host)?;
                    self.stack.truncate(split);
                    if results.len() != sig.returns as usize {
                        return Err(Trap::Host(format!(
                            "import {} returned {} values, declared {}",
                            sig.name,
                            results.len(),
                            sig.returns
                        )));
                    }
                    for v in results {
                        self.push(v)?;
                    }
                }
                Instr::Return => {
                    let ret = if func.returns == 1 {
                        Some(self.pop()?)
                    } else {
                        None
                    };
                    self.locals.truncate(frame.base);
                    frames.pop();
                    if frames.is_empty() {
                        return Ok(ret);
                    }
                    if let Some(v) = ret {
                        self.push(v)?;
                    }
                }
                Instr::Load8(off) => {
                    self.charge(MEM_FUEL)?;
                    let base = self.pop()?;
                    let addr = effective_addr(base, off)?;
                    let v = self.memory.load8(addr)?;
                    self.push(v)?;
                }
                Instr::Load64(off) => {
                    self.charge(MEM_FUEL)?;
                    let base = self.pop()?;
                    let addr = effective_addr(base, off)?;
                    let v = self.memory.load64(addr)?;
                    self.push(v)?;
                }
                Instr::Store8(off) => {
                    self.charge(MEM_FUEL)?;
                    let v = self.pop()?;
                    let base = self.pop()?;
                    let addr = effective_addr(base, off)?;
                    self.memory.store8(addr, v)?;
                }
                Instr::Store64(off) => {
                    self.charge(MEM_FUEL)?;
                    let v = self.pop()?;
                    let base = self.pop()?;
                    let addr = effective_addr(base, off)?;
                    self.memory.store64(addr, v)?;
                }
                Instr::MemSize => {
                    let pages = self.memory.pages() as u64;
                    self.push(pages)?;
                }
                Instr::MemGrow => {
                    let delta = self.pop()?;
                    let res = self.memory.grow(delta);
                    self.push(res)?;
                }
                Instr::Drop => {
                    self.pop()?;
                }
                Instr::Dup => {
                    let v = *self.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.push(v)?;
                }
                Instr::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b)?;
                    self.push(a)?;
                }
                Instr::Select => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    let c = self.pop()?;
                    self.push(if c != 0 { a } else { b })?;
                }
                Instr::Trap => return Err(Trap::Explicit),
            }
        }
    }

    fn binop(&mut self, f: impl FnOnce(u64, u64) -> Result<u64, Trap>) -> Result<(), Trap> {
        let b = self.pop()?;
        let a = self.pop()?;
        let r = f(a, b)?;
        self.push(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{DataSegment, Export, Function};

    fn module_with(code: Vec<Instr>, params: u16, locals: u16, returns: u16) -> Module {
        Module {
            imports: vec![],
            functions: vec![Function {
                params,
                locals,
                returns,
                code,
            }],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 2,
        }
    }

    fn run(code: Vec<Instr>, args: &[u64]) -> Result<Option<u64>, Trap> {
        let m = module_with(code, args.len() as u16, 4, 1);
        let mut inst = Instance::new(m, Limits::default())?;
        inst.invoke("main", args, &mut NoHost)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run(
                vec![Instr::Const(2), Instr::Const(3), Instr::Add, Instr::Return],
                &[]
            ),
            Ok(Some(5))
        );
        assert_eq!(
            run(
                vec![Instr::Const(10), Instr::Const(3), Instr::Sub, Instr::Return],
                &[]
            ),
            Ok(Some(7))
        );
        assert_eq!(
            run(
                vec![Instr::Const(6), Instr::Const(7), Instr::Mul, Instr::Return],
                &[]
            ),
            Ok(Some(42))
        );
        assert_eq!(
            run(
                vec![
                    Instr::Const(17),
                    Instr::Const(5),
                    Instr::DivU,
                    Instr::Return
                ],
                &[]
            ),
            Ok(Some(3))
        );
        assert_eq!(
            run(
                vec![
                    Instr::Const(17),
                    Instr::Const(5),
                    Instr::RemU,
                    Instr::Return
                ],
                &[]
            ),
            Ok(Some(2))
        );
    }

    #[test]
    fn wrapping_semantics() {
        assert_eq!(
            run(
                vec![
                    Instr::Const(u64::MAX),
                    Instr::Const(1),
                    Instr::Add,
                    Instr::Return
                ],
                &[]
            ),
            Ok(Some(0))
        );
        assert_eq!(
            run(
                vec![Instr::Const(0), Instr::Const(1), Instr::Sub, Instr::Return],
                &[]
            ),
            Ok(Some(u64::MAX))
        );
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            run(
                vec![Instr::Const(1), Instr::Const(0), Instr::DivU, Instr::Return],
                &[]
            ),
            Err(Trap::DivisionByZero)
        );
    }

    #[test]
    fn comparisons_and_select() {
        assert_eq!(
            run(
                vec![
                    Instr::Const(3),
                    Instr::Const(4),
                    Instr::LtU,
                    Instr::Const(100),
                    Instr::Const(200),
                    Instr::Select,
                    Instr::Return
                ],
                &[]
            ),
            Ok(Some(100))
        );
    }

    #[test]
    fn rotr_matches_rust() {
        assert_eq!(
            run(
                vec![
                    Instr::Const(0x1234_5678_9abc_def0),
                    Instr::Const(16),
                    Instr::Rotr,
                    Instr::Return
                ],
                &[]
            ),
            Ok(Some(0x1234_5678_9abc_def0u64.rotate_right(16)))
        );
    }

    #[test]
    fn locals_and_params() {
        // f(a, b) = a*2 + b
        let code = vec![
            Instr::LocalGet(0),
            Instr::Const(2),
            Instr::Mul,
            Instr::LocalGet(1),
            Instr::Add,
            Instr::Return,
        ];
        assert_eq!(run(code, &[21, 5]), Ok(Some(47)));
    }

    #[test]
    fn loop_sums_one_to_n() {
        // local0 = n (param), local1 = acc, local2 = i
        let code = vec![
            /* 0 */ Instr::Const(0),
            /* 1 */ Instr::LocalSet(1),
            /* 2 */ Instr::Const(1),
            /* 3 */ Instr::LocalSet(2),
            // loop: if i > n goto end
            /* 4 */ Instr::LocalGet(2),
            /* 5 */ Instr::LocalGet(0),
            /* 6 */ Instr::GtU,
            /* 7 */ Instr::JumpIfNonZero(16),
            /* 8 */ Instr::LocalGet(1),
            /* 9 */ Instr::LocalGet(2),
            /* 10 */ Instr::Add,
            /* 11 */ Instr::LocalSet(1),
            /* 12 */ Instr::LocalGet(2),
            /* 13 */ Instr::Const(1),
            /* 14 */ Instr::Add,
            /* 15 */ Instr::LocalSet(2),
            /* 16 — patched below */ Instr::Jump(4),
            /* 17 */ Instr::LocalGet(1),
            /* 18 */ Instr::Return,
        ];
        // Fix: end label is 17; instruction 7 jumps to 16 which jumps back.
        let mut code = code;
        code[7] = Instr::JumpIfNonZero(17);
        assert_eq!(run(code, &[100]), Ok(Some(5050)));
    }

    #[test]
    fn memory_round_trip() {
        let code = vec![
            Instr::Const(64),
            Instr::Const(0xdead_beef_cafe_f00d),
            Instr::Store64(0),
            Instr::Const(64),
            Instr::Load64(0),
            Instr::Return,
        ];
        assert_eq!(run(code, &[]), Ok(Some(0xdead_beef_cafe_f00d)));
    }

    #[test]
    fn memory_oob_traps() {
        let code = vec![
            Instr::Const(PAGE_SIZE as u64 - 4),
            Instr::Load64(0),
            Instr::Return,
        ];
        assert!(matches!(run(code, &[]), Err(Trap::OutOfBounds { .. })));
        // Offset wrap-around must trap, not alias low memory.
        let code = vec![Instr::Const(u64::MAX), Instr::Load8(10), Instr::Return];
        assert!(matches!(run(code, &[]), Err(Trap::OutOfBounds { .. })));
        let code = vec![
            Instr::Const(u64::MAX - 2),
            Instr::Const(1),
            Instr::Store64(8),
            Instr::Const(0),
            Instr::Return,
        ];
        assert!(matches!(run(code, &[]), Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn mem_grow_respects_max() {
        let code = vec![
            Instr::Const(1),
            Instr::MemGrow, // 1 -> 2 pages, returns 1
            Instr::Drop,
            Instr::Const(1),
            Instr::MemGrow, // beyond max=2, returns MAX
            Instr::Return,
        ];
        assert_eq!(run(code, &[]), Ok(Some(u64::MAX)));
    }

    #[test]
    fn data_segments_initialized() {
        let mut m = module_with(
            vec![Instr::Const(16), Instr::Load8(0), Instr::Return],
            0,
            0,
            1,
        );
        m.data.push(DataSegment {
            offset: 16,
            bytes: vec![0x5a],
        });
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(inst.invoke("main", &[], &mut NoHost), Ok(Some(0x5a)));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        // Infinite loop must hit OutOfFuel, not hang.
        let code = vec![Instr::Jump(0)];
        let m = module_with(code, 0, 0, 0);
        let mut inst = Instance::new(
            m,
            Limits {
                fuel: 10_000,
                ..Limits::default()
            },
        )
        .unwrap();
        assert_eq!(inst.invoke("main", &[], &mut NoHost), Err(Trap::OutOfFuel));
        assert!(inst.last_fuel_used <= 10_000);
    }

    #[test]
    fn stack_overflow_contained() {
        // Push forever.
        let code = vec![Instr::Const(1), Instr::Jump(0)];
        let m = module_with(code, 0, 0, 0);
        let mut inst = Instance::new(
            m,
            Limits {
                fuel: u64::MAX / 2,
                max_stack: 1024,
                max_call_depth: 8,
            },
        )
        .unwrap();
        assert_eq!(
            inst.invoke("main", &[], &mut NoHost),
            Err(Trap::StackOverflow)
        );
    }

    #[test]
    fn call_depth_contained() {
        // fn 0 calls itself.
        let m = Module {
            imports: vec![],
            functions: vec![Function {
                params: 0,
                locals: 0,
                returns: 0,
                code: vec![Instr::Call(0), Instr::Return],
            }],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(
            inst.invoke("main", &[], &mut NoHost),
            Err(Trap::CallDepthExceeded)
        );
    }

    #[test]
    fn cross_function_calls() {
        // fn1(x) = x + 1; main(x) = fn1(fn1(x))
        let m = Module {
            imports: vec![],
            functions: vec![
                Function {
                    params: 1,
                    locals: 0,
                    returns: 1,
                    code: vec![
                        Instr::LocalGet(0),
                        Instr::Call(1),
                        Instr::Call(1),
                        Instr::Return,
                    ],
                },
                Function {
                    params: 1,
                    locals: 0,
                    returns: 1,
                    code: vec![
                        Instr::LocalGet(0),
                        Instr::Const(1),
                        Instr::Add,
                        Instr::Return,
                    ],
                },
            ],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(inst.invoke("main", &[40], &mut NoHost), Ok(Some(42)));
    }

    /// Activations share one locals vector: a callee's declared locals must
    /// read 0 even when its slots are the ones an earlier, returned
    /// activation filled, and a callee must not disturb its caller's slots.
    #[test]
    fn declared_locals_read_zero_on_slots_an_earlier_activation_dirtied() {
        let dirty = Function {
            params: 1,
            locals: 2,
            returns: 0,
            code: vec![
                Instr::Const(0xdead),
                Instr::LocalSet(0),
                Instr::Const(0xbeef),
                Instr::LocalSet(1),
                Instr::Const(0xf00d),
                Instr::LocalSet(2),
                Instr::Return,
            ],
        };
        // reader(a): reads both declared locals before writing them.
        let reader = Function {
            params: 1,
            locals: 2,
            returns: 1,
            code: vec![
                Instr::LocalGet(1),
                Instr::LocalGet(2),
                Instr::Or,
                Instr::Const(7),
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::Add,
                Instr::Return,
            ],
        };
        // main(x): local 1 = 5; dirty(9); reader(x) + local 1.
        let main = Function {
            params: 1,
            locals: 1,
            returns: 1,
            code: vec![
                Instr::Const(5),
                Instr::LocalSet(1),
                Instr::Const(9),
                Instr::Call(1),
                Instr::LocalGet(0),
                Instr::Call(2),
                Instr::LocalGet(1),
                Instr::Add,
                Instr::Return,
            ],
        };
        let m = Module {
            imports: vec![],
            functions: vec![main, dirty, reader],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        // (0 | 0) + 100 from the reader, + 5 from main's own local.
        assert_eq!(inst.invoke("main", &[100], &mut NoHost), Ok(Some(105)));
    }

    #[test]
    fn host_calls_flow_values_and_memory() {
        struct Adder {
            observed: Vec<u64>,
        }
        impl Host for Adder {
            fn call(
                &mut self,
                index: u16,
                args: &[u64],
                memory: &mut Memory,
            ) -> Result<Vec<u64>, String> {
                assert_eq!(index, 0);
                self.observed.extend_from_slice(args);
                // Write a marker into guest memory to prove the host view
                // is the same memory.
                memory.write(128, &[7]).map_err(|e| e.to_string())?;
                Ok(vec![args[0] + args[1]])
            }
        }
        let m = Module {
            imports: vec![crate::module::ImportSig {
                name: "env.add".into(),
                params: 2,
                returns: 1,
            }],
            functions: vec![Function {
                params: 0,
                locals: 0,
                returns: 1,
                code: vec![
                    Instr::Const(20),
                    Instr::Const(22),
                    Instr::HostCall(0),
                    // Read back the marker the host wrote.
                    Instr::Const(128),
                    Instr::Load8(0),
                    Instr::Add,
                    Instr::Return,
                ],
            }],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        let mut host = Adder { observed: vec![] };
        assert_eq!(inst.invoke("main", &[], &mut host), Ok(Some(49)));
        assert_eq!(host.observed, vec![20, 22]);
    }

    #[test]
    fn host_errors_become_traps() {
        let m = Module {
            imports: vec![crate::module::ImportSig {
                name: "env.fail".into(),
                params: 0,
                returns: 0,
            }],
            functions: vec![Function {
                params: 0,
                locals: 0,
                returns: 0,
                code: vec![Instr::HostCall(0), Instr::Return],
            }],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        struct Failing;
        impl Host for Failing {
            fn call(&mut self, _: u16, _: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
                Err("host refused".into())
            }
        }
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(
            inst.invoke("main", &[], &mut Failing),
            Err(Trap::Host("host refused".into()))
        );
    }

    #[test]
    fn wrong_arity_rejected() {
        // Function declares two parameters; invoke with zero.
        let m = module_with(vec![Instr::LocalGet(0), Instr::Return], 2, 0, 1);
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(
            inst.invoke("main", &[], &mut NoHost),
            Err(Trap::ArityMismatch {
                expected: 2,
                got: 0
            })
        );
    }

    #[test]
    fn unknown_export_rejected() {
        let m = module_with(vec![Instr::Return], 0, 0, 0);
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(
            inst.invoke("nope", &[], &mut NoHost),
            Err(Trap::UnknownExport("nope".into()))
        );
    }

    #[test]
    fn explicit_trap() {
        assert_eq!(run(vec![Instr::Trap], &[]), Err(Trap::Explicit));
    }

    #[test]
    fn fell_off_end_detected() {
        // A jump that skips Return then runs off the end.
        let code = vec![Instr::Jump(1), Instr::Const(1), Instr::Drop];
        let m = module_with(code, 0, 0, 0);
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        assert_eq!(inst.invoke("main", &[], &mut NoHost), Err(Trap::FellOffEnd));
    }

    #[test]
    fn memory_persists_across_invocations() {
        let m = Module {
            imports: vec![],
            functions: vec![
                Function {
                    params: 1,
                    locals: 0,
                    returns: 0,
                    code: vec![
                        Instr::Const(8),
                        Instr::LocalGet(0),
                        Instr::Store64(0),
                        Instr::Return,
                    ],
                },
                Function {
                    params: 0,
                    locals: 0,
                    returns: 1,
                    code: vec![Instr::Const(8), Instr::Load64(0), Instr::Return],
                },
            ],
            exports: vec![
                Export {
                    name: "set".into(),
                    function: 0,
                },
                Export {
                    name: "get".into(),
                    function: 1,
                },
            ],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let mut inst = Instance::new(m, Limits::default()).unwrap();
        inst.invoke("set", &[12345], &mut NoHost).unwrap();
        assert_eq!(inst.invoke("get", &[], &mut NoHost), Ok(Some(12345)));
    }
}
