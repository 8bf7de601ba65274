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
//!
//! A host call whose operands are all constants — a run of `k` `Const`s
//! ending in a `HostCall` whose import declares exactly `k` parameters —
//! runs as one interpreter step: the host reads the constants where the
//! instance keeps them, and nothing passes through the value stack. The
//! runs are found once per function when the instance is created. The step
//! still charges every instruction it stands for, and it is taken only when
//! the fuel and the stack room for the whole run are there; otherwise the
//! run executes one instruction at a time and traps where it always has.

use crate::isa::Instr;
use crate::module::{Function, ImportSig, Module, PAGE_SIZE};

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

/// A run of constant operands that a host call takes whole, recorded at
/// the run's first `Const`.
#[derive(Clone, Copy, Default)]
struct FusedRun {
    /// Constants in the run, as many as the import's parameters; 0 where no
    /// run starts.
    len: u16,
    /// Where the run's constants start in [`Prepared::consts`].
    start: u32,
}

/// One function as the interpreter runs it: the module's, except that the
/// first `Const` of a run of constant operands reads as the `HostCall` the
/// run feeds (see the module docs). The `Const` arm of the interpreter loop
/// stays a bare push, and only a host call looks at the side table: a check
/// on every `Const` slows the guests that make no host calls.
struct Prepared {
    func: Function,
    /// Per instruction: the run that starts there.
    runs: Vec<FusedRun>,
    /// Every run's constants, each run contiguous.
    consts: Vec<u64>,
}

impl Prepared {
    fn new(func: &Function, imports: &[ImportSig]) -> Self {
        let mut prepared = Self {
            func: func.clone(),
            runs: vec![FusedRun::default(); func.code.len()],
            consts: Vec::new(),
        };
        // The `Const`s just before `at`.
        let mut run = 0;
        for (at, instr) in func.code.iter().enumerate() {
            match *instr {
                Instr::Const(_) => {
                    run += 1;
                    continue;
                }
                Instr::HostCall(import) => {
                    let len = imports.get(import as usize).map_or(0, |sig| sig.params);
                    let fusable = len > 0 && usize::from(len) <= run;
                    if let (true, Ok(start)) = (fusable, u32::try_from(prepared.consts.len())) {
                        let first = at - usize::from(len);
                        let operands =
                            func.code[first..at].iter().filter_map(|instr| match instr {
                                Instr::Const(v) => Some(*v),
                                _ => None,
                            });
                        prepared.consts.extend(operands);
                        prepared.func.code[first] = Instr::HostCall(import);
                        prepared.runs[first] = FusedRun { len, start };
                    }
                }
                _ => {}
            }
            run = 0;
        }
        prepared
    }
}

/// An instantiated module ready to execute exports.
pub struct Instance {
    module: Module,
    /// Per function, as the interpreter runs it.
    prepared: Vec<Prepared>,
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
        let prepared = module
            .functions
            .iter()
            .map(|func| Prepared::new(func, &module.imports))
            .collect();
        Ok(Self {
            module,
            prepared,
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
            prepared: &self.prepared,
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
    prepared: &'m Prepared,
    base: usize,
    ip: usize,
}

struct Executor<'m, H: Host> {
    module: &'m Module,
    prepared: &'m [Prepared],
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

    /// Function `index`, as the interpreter runs it.
    fn function(&self, index: u32) -> Result<&'m Prepared, Trap> {
        let prepared = self.prepared;
        prepared
            .get(index as usize)
            .ok_or(Trap::InvalidFunction(index))
    }

    /// A fresh activation of `func`: its arguments move from the value stack
    /// onto the locals vector, the declared locals follow zeroed (the slots
    /// may hold what an earlier activation left there), execution starts at
    /// the first instruction.
    fn enter(&mut self, prepared: &'m Prepared) -> Result<Frame<'m>, Trap> {
        let func = &prepared.func;
        let split = self.operands(func.params)?;
        let base = self.locals.len();
        self.locals.extend_from_slice(&self.stack[split..]);
        self.stack.truncate(split);
        self.locals
            .resize(self.locals.len() + func.locals as usize, 0);
        Ok(Frame {
            prepared,
            base,
            ip: 0,
        })
    }

    /// Runs a `HostCall` of the code, which stands either for itself or for
    /// a run of constant operands and the call they feed (see [`Prepared`]).
    /// The run is one step when the fuel for all of it is there and its
    /// pushes would fit on the stack; otherwise its first `Const` runs as
    /// itself and the rest of the run follows one instruction at a time, so
    /// every trap comes where and as it always has. Out of line: inlined
    /// into the interpreter loop, it slows every guest's other instructions.
    #[inline(never)]
    fn host_step(&mut self, index: u16, frame: &mut Frame<'m>) -> Result<(), Trap> {
        let run = frame.prepared.runs[frame.ip - 1];
        if run.len == 0 {
            self.charge(HOST_FUEL)?;
            return self.host_call(index, None);
        }
        let consts = &frame.prepared.consts[run.start as usize..][..run.len as usize];
        // The run's fuel but for its first `Const`'s, already charged.
        let rest = u64::from(run.len) + HOST_FUEL;
        let room = self.max_stack.saturating_sub(self.stack.len());
        if self.fuel < rest || room < consts.len() {
            return self.push(consts[0]);
        }
        self.fuel -= rest;
        frame.ip += consts.len();
        self.host_call(index, Some(consts))
    }

    /// Calls import `index` and pushes what it returns. Its arguments are
    /// `consts` when the call's constant operands run as one step with it,
    /// else the top of the value stack, which the call pops. Inlined into
    /// both of [`Self::host_step`]'s paths: as a function of its own it made
    /// the signer guest's signature ≈ 3 % slower.
    #[inline(always)]
    fn host_call(&mut self, index: u16, consts: Option<&[u64]>) -> Result<(), Trap> {
        let sig = self
            .module
            .imports
            .get(index as usize)
            .ok_or(Trap::InvalidHostCall(index))?;
        let split = match consts {
            Some(_) => self.stack.len(),
            None => self.operands(sig.params)?,
        };
        // The host reads its arguments where they already are.
        let args = consts.unwrap_or(&self.stack[split..]);
        let results = self
            .host
            .call(index, args, self.memory)
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
        // Pushing them one by one would trap at the first that does not fit.
        if results.len() > self.max_stack.saturating_sub(self.stack.len()) {
            return Err(Trap::StackOverflow);
        }
        self.stack.extend_from_slice(&results);
        Ok(())
    }

    /// Runs `func_idx` to completion on an explicit frame stack.
    ///
    /// The interpreter is deliberately iterative: guest call depth consumes
    /// heap (one [`Frame`] and its slots per activation), never host stack,
    /// so a deeply-recursive guest can only trap with
    /// [`Trap::CallDepthExceeded`] — it cannot overflow the host thread's
    /// stack and abort the process.
    fn call_function(&mut self, func_idx: u32, args: &[u64]) -> Result<Option<u64>, Trap> {
        let root = self.function(func_idx)?;
        if self.max_call_depth == 0 {
            return Err(Trap::CallDepthExceeded);
        }
        self.stack.extend_from_slice(args);
        let mut frames = vec![self.enter(root)?];
        loop {
            let frame = frames.last_mut().expect("at least the root frame");
            let func = &frame.prepared.func;
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
                    let callee = self.function(u32::from(target))?;
                    frames.push(self.enter(callee)?);
                }
                Instr::HostCall(index) => self.host_step(index, frame)?,
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

    /// Answers every call with `results` values and keeps every call's
    /// arguments.
    struct Transcript {
        results: usize,
        calls: Vec<Vec<u64>>,
    }

    impl Host for Transcript {
        fn call(&mut self, _: u16, args: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
            self.calls.push(args.to_vec());
            let sum = args.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            Ok((0..self.results as u64).map(|i| sum ^ i).collect())
        }
    }

    /// `main` runs `before`, pushes `values`, calls an import declaring
    /// `params` and `returns` (the host answers `results` values), then
    /// runs `after`. `values` are also `main`'s arguments.
    #[derive(Clone)]
    struct HostCallCase {
        before: Vec<Instr>,
        values: Vec<u64>,
        params: u16,
        returns: u16,
        results: usize,
        after: Vec<Instr>,
        /// The stack depth at the call, its operands pushed.
        depth: usize,
    }

    /// What a caller and the host see of a run, and whether its code holds
    /// a fused run.
    #[derive(Debug, PartialEq)]
    struct Seen {
        outcome: Result<Option<u64>, Trap>,
        fuel: u64,
        calls: Vec<Vec<u64>>,
        fused: bool,
    }

    impl HostCallCase {
        /// Runs the case with its values pushed by `Const`s, or
        /// (`from_locals`) by `LocalGet`s of the arguments, which no run
        /// fuses.
        fn run(&self, from_locals: bool, limits: Limits) -> Seen {
            let mut code = self.before.clone();
            code.extend(self.values.iter().enumerate().map(|(i, &v)| {
                if from_locals {
                    Instr::LocalGet(i as u16)
                } else {
                    Instr::Const(v)
                }
            }));
            code.push(Instr::HostCall(0));
            code.extend_from_slice(&self.after);
            let mut m = module_with(code, self.values.len() as u16, 0, 1);
            m.imports.push(crate::module::ImportSig {
                name: "env.f".into(),
                params: self.params,
                returns: self.returns,
            });
            let mut inst = Instance::new(m, limits).unwrap();
            let mut host = Transcript {
                results: self.results,
                calls: Vec::new(),
            };
            let outcome = inst.invoke("main", &self.values, &mut host);
            Seen {
                outcome,
                fuel: inst.last_fuel_used,
                calls: host.calls,
                fused: inst.prepared[0].runs.iter().any(|run| run.len > 0),
            }
        }
    }

    /// A run of `Const`s that feeds a host call runs as one step, and that
    /// step is invisible: against the same call with `LocalGet` operands,
    /// every fuel budget up to the run's cost and past it, and a value
    /// stack of the depth the call needs and up to three entries less,
    /// give the same outcome, fuel and host transcript — also when the
    /// import takes fewer constants than the run has, takes a value from
    /// below the run as well, or is answered with a value too many.
    #[test]
    fn a_fused_host_call_runs_exactly_as_its_instructions() {
        let exact = HostCallCase {
            before: vec![],
            values: vec![3, 5, 7],
            params: 3,
            returns: 1,
            results: 1,
            after: vec![Instr::Return],
            depth: 3,
        };
        let fewer = HostCallCase {
            params: 2,
            after: vec![Instr::Add, Instr::Return],
            ..exact.clone()
        };
        let more = HostCallCase {
            before: vec![Instr::Const(11), Instr::Const(13), Instr::Add],
            values: vec![3, 5],
            ..exact.clone()
        };
        let wrong_results = HostCallCase {
            results: 2,
            ..exact.clone()
        };
        for (name, case, fuses) in [
            ("exact", exact, true),
            ("fewer", fewer, true),
            ("more", more, false),
            ("wrong results", wrong_results, true),
        ] {
            let unlimited = case.run(false, Limits::default());
            assert_eq!(unlimited.fused, fuses, "{name}");
            assert_eq!(unlimited.calls.len(), 1, "{name}");
            let mut limits: Vec<Limits> = (0..=unlimited.fuel + 1)
                .map(|fuel| Limits {
                    fuel,
                    ..Limits::default()
                })
                .collect();
            limits.extend((0..=3).map(|less| Limits {
                max_stack: case.depth - less,
                ..Limits::default()
            }));
            for limits in limits {
                let consts = case.run(false, limits);
                let locals = case.run(true, limits);
                assert!(!locals.fused);
                let seen = Seen {
                    fused: false,
                    ..consts
                };
                assert_eq!(seen, locals, "{name} under {limits:?}");
            }
        }
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
