//! Golden vectors for the interpreter.
//!
//! `tests/vm_robustness.rs` checks containment (no panic, no hang); nothing
//! there pins *results*. This suite does: 512 programs generated from an
//! `HmacDrbg` seed, each run under 10 000 fuel and the default limits
//! against a deterministic recording host, and for each one digest over the
//! outcome (`Ok(v)` or the `Trap` with its fields), the fuel consumed, the
//! final guest memory and the host's call transcript. The digests in
//! `engine_golden.digests` were recorded on the engine as it stood before
//! activations moved onto one shared locals vector; an engine change must
//! reproduce every one of them bit for bit.
//!
//! Most programs are random instruction streams in the shape of
//! `vm_robustness.rs::arb_instr`, at four mixes of stack-aware and wild
//! instructions so that executions run deep instead of dying on the first
//! underflow. The rest are directed: the generator still draws every count,
//! constant and argument, but a skeleton guarantees the case, and the test
//! asserts from the outcome, the fuel and the transcript that it happened.

use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::sha256::Sha256;
use distrust_sandbox::{
    Export, Function, Host, ImportSig, Instance, Instr, Limits, Memory, Module, Trap,
};

const PROGRAMS: usize = 512;
const FUEL: u64 = 10_000;
const GOLDEN: &str = include_str!("engine_golden.digests");

/// The import every directed program reports through: one argument, no
/// result, never refuses.
const PROBE: u16 = 3;

/// Pseudorandom bytes for one program, drawn once from the DRBG.
struct Dice {
    pool: Vec<u8>,
    at: usize,
}

impl Dice {
    fn new(index: usize) -> Self {
        let mut pool = vec![0u8; 4096];
        HmacDrbg::new(
            b"distrust engine golden vectors",
            &(index as u64).to_le_bytes(),
        )
        .generate(&mut pool);
        Self { pool, at: 0 }
    }

    fn byte(&mut self) -> u8 {
        let b = self.pool[self.at % self.pool.len()];
        self.at += 1;
        b
    }

    fn below(&mut self, n: u64) -> u64 {
        u64::from(u16::from_le_bytes([self.byte(), self.byte()])) % n
    }

    fn word(&mut self) -> u64 {
        u64::from_le_bytes(std::array::from_fn(|_| self.byte()))
    }

    /// A constant worth pushing: small, address-like, or any word.
    fn constant(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(4),
            1 => self.below(64),
            2 => self.below(65_600),
            _ => self.word(),
        }
    }
}

/// Answers import `index` with a value mixed from the index and the
/// arguments, leaves a marker in guest memory, and keeps the transcript.
/// Imports other than [`PROBE`] sometimes refuse and sometimes return one
/// value more than they declared.
struct Recorder {
    imports: Vec<ImportSig>,
    transcript: Vec<(u16, Vec<u64>)>,
}

impl Host for Recorder {
    fn call(&mut self, index: u16, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        let mix = args.iter().fold(u64::from(index) + 1, |acc, a| {
            (acc ^ a)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(23)
        });
        self.transcript.push((index, args.to_vec()));
        memory
            .write(32_768 + (mix % 512) * 8, &mix.to_le_bytes())
            .map_err(|e| e.to_string())?;
        let declared = self.imports[index as usize].returns as usize;
        if index == PROBE {
            return Ok(vec![mix; declared]);
        }
        if mix % 23 == 0 {
            return Err(format!("recorder refuses call {}", self.transcript.len()));
        }
        Ok(vec![mix; declared + usize::from(mix % 53 == 0)])
    }
}

/// `(params, locals, returns)` of each of the three functions.
type Sigs = [(u16, u16, u16); 3];

struct Program {
    module: Module,
    args: Vec<u64>,
    /// What a directed program must be seen to do; `None` for random ones.
    expect: Option<Expect>,
}

enum Expect {
    /// The probe transcript, exactly.
    Probes(Vec<u64>),
    /// This outcome after exactly this much fuel.
    Trap(Trap, u64),
}

fn imports(d: &mut Dice) -> Vec<ImportSig> {
    let mut imports: Vec<ImportSig> = ["rec.a", "rec.b", "rec.c"]
        .iter()
        .map(|name| ImportSig {
            name: (*name).into(),
            params: d.below(4) as u16,
            returns: d.below(2) as u16,
        })
        .collect();
    imports.push(ImportSig {
        name: "rec.probe".into(),
        params: 1,
        returns: 0,
    });
    imports
}

fn module(imports: Vec<ImportSig>, sigs: Sigs, bodies: [Vec<Instr>; 3]) -> Module {
    Module {
        imports,
        functions: sigs
            .iter()
            .zip(bodies)
            .map(|(&(params, locals, returns), code)| Function {
                params,
                locals,
                returns,
                code,
            })
            .collect(),
        exports: vec![Export {
            name: "main".into(),
            function: 0,
        }],
        data: vec![],
        initial_pages: 1,
        max_pages: 2,
    }
}

/// Any instruction of the ISA with in-range indexes, whatever the stack
/// holds — the shape of `arb_instr`.
fn wild(d: &mut Dice, len: u64, slots: u16) -> Instr {
    const PLAIN: [Instr; 25] = [
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
        Instr::Return,
        Instr::MemSize,
        Instr::MemGrow,
        Instr::Drop,
        Instr::Dup,
        Instr::Swap,
        Instr::Select,
        Instr::Trap,
    ];
    match d.below(37) {
        0 => Instr::Const(d.word()),
        1 if slots > 0 => Instr::LocalGet(d.below(slots.into()) as u16),
        2 if slots > 0 => Instr::LocalSet(d.below(slots.into()) as u16),
        3 => Instr::JumpIfZero(d.below(len) as u32),
        4 => Instr::JumpIfNonZero(d.below(len) as u32),
        5 => Instr::Jump(d.below(len) as u32),
        6 => Instr::Call(d.below(3) as u16),
        7 => Instr::HostCall(d.below(4) as u16),
        8 => Instr::Load8(d.below(100_000) as u32),
        9 => Instr::Load64(d.below(100_000) as u32),
        10 => Instr::Store8(d.below(100_000) as u32),
        11 => Instr::Store64(d.below(100_000) as u32),
        n => PLAIN[(n as usize + 13) % PLAIN.len()],
    }
}

/// A random body for function `me`: each step is a wild instruction with
/// probability `wild_pct` %, otherwise a snippet that leaves the (statically
/// estimated) stack usable, so that calls, host calls and loops are reached.
fn random_body(
    d: &mut Dice,
    sigs: &Sigs,
    imports: &[ImportSig],
    me: usize,
    wild_pct: u64,
) -> Vec<Instr> {
    let (params, locals, returns) = sigs[me];
    let slots = params + locals;
    let steps = 3 + d.below(28);
    let mut code = Vec::new();
    let mut height = 0i64;
    let push = |d: &mut Dice, code: &mut Vec<Instr>| {
        if slots > 0 && d.below(2) == 0 {
            code.push(Instr::LocalGet(d.below(slots.into()) as u16));
        } else {
            code.push(Instr::Const(d.constant()));
        }
    };
    // Tops the stack up to the operands `instr` takes, then emits it.
    let call = |d: &mut Dice, code: &mut Vec<Instr>, height: &mut i64, params, returns, instr| {
        for _ in 0..i64::from(params).saturating_sub(*height) {
            push(d, code);
            *height += 1;
        }
        code.push(instr);
        *height += i64::from(returns) - i64::from(params);
    };
    for _ in 0..steps {
        if d.below(100) < wild_pct {
            code.push(wild(d, steps, slots));
            continue;
        }
        match d.below(16) {
            0..=2 => {
                push(d, &mut code);
                height += 1;
            }
            3 | 4 if height >= 1 && slots > 0 => {
                code.push(Instr::LocalSet(d.below(slots.into()) as u16));
                height -= 1;
            }
            5 | 6 if height >= 2 => {
                const OPS: [Instr; 10] = [
                    Instr::Add,
                    Instr::Sub,
                    Instr::Mul,
                    Instr::Xor,
                    Instr::RemU,
                    Instr::DivU,
                    Instr::ShrU,
                    Instr::LtU,
                    Instr::Ne,
                    Instr::Swap,
                ];
                let op = OPS[d.below(OPS.len() as u64) as usize];
                code.push(op);
                height -= i64::from(op != Instr::Swap);
            }
            7 => {
                // Memory round trip at an address that is usually in range.
                code.push(Instr::Const(d.below(65_530)));
                if d.below(2) == 0 {
                    push(d, &mut code);
                    code.push(Instr::Store64(d.below(16) as u32));
                } else {
                    code.push(Instr::Load64(d.below(16) as u32));
                    height += 1;
                }
            }
            8..=10 => {
                // Mostly down the chain 0 → 1 → 2, so that programs build
                // depth and still return; now and then anywhere, which is
                // where unbounded recursion comes from.
                let target = match d.below(6) {
                    0 => d.below(3) as usize,
                    _ => (me + 1).min(2),
                };
                if target == me && d.below(4) != 0 {
                    push(d, &mut code);
                    height += 1;
                    continue;
                }
                let (params, _, returns) = sigs[target];
                call(
                    d,
                    &mut code,
                    &mut height,
                    params,
                    returns,
                    Instr::Call(target as u16),
                );
            }
            11 | 12 => {
                let index = d.below(imports.len() as u64) as usize;
                let (params, returns) = (imports[index].params, imports[index].returns);
                call(
                    d,
                    &mut code,
                    &mut height,
                    params,
                    returns,
                    Instr::HostCall(index as u16),
                );
            }
            13 if height >= 1 => {
                let target = d.below(steps) as u32;
                code.push(if d.below(2) == 0 {
                    Instr::JumpIfZero(target)
                } else {
                    Instr::JumpIfNonZero(target)
                });
                height -= 1;
            }
            14 if height >= 1 => {
                let (op, effect) = [(Instr::Dup, 1), (Instr::Drop, -1)][d.below(2) as usize];
                code.push(op);
                height += effect;
            }
            _ => {
                code.push(Instr::Const(d.below(3)));
                height += 1;
            }
        }
    }
    // Usually a well-formed exit; sometimes the body just ends.
    if d.below(8) != 0 {
        for _ in 0..i64::from(returns).saturating_sub(height) {
            push(d, &mut code);
        }
        code.push(Instr::Return);
    }
    let len = code.len() as u32;
    for instr in &mut code {
        if let Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t) = instr {
            *t %= len;
        }
    }
    code
}

fn random_program(d: &mut Dice, wild_pct: u64) -> Program {
    let imports = imports(d);
    let sigs: Sigs =
        std::array::from_fn(|_| (d.below(5) as u16, d.below(5) as u16, d.below(2) as u16));
    let bodies = std::array::from_fn(|me| random_body(d, &sigs, &imports, me, wild_pct));
    let args = (0..sigs[0].0).map(|_| d.constant()).collect();
    Program {
        module: module(imports, sigs, bodies),
        args,
        expect: None,
    }
}

fn probe_local(code: &mut Vec<Instr>, slot: u16) {
    code.extend([Instr::LocalGet(slot), Instr::HostCall(PROBE)]);
}

fn exit(code: &mut Vec<Instr>, returns: u16, d: &mut Dice) {
    if returns == 1 {
        code.push(Instr::Const(d.word()));
    }
    code.push(Instr::Return);
}

/// `main` calls `dirty`, which fills every one of its slots with non-zero
/// words and returns, then calls `reader`, whose activation lands on the
/// slots `dirty` just left: `reader` probes each *declared local before
/// writing it* (must read 0), then each parameter (must read the argument).
fn rezero_program(d: &mut Dice) -> Program {
    let dirty = (d.below(5) as u16, 1 + d.below(4) as u16, d.below(2) as u16);
    let reader = (d.below(5) as u16, 1 + d.below(4) as u16, d.below(2) as u16);
    let sigs: Sigs = [(0, 0, 0), dirty, reader];
    let reader_args: Vec<u64> = (0..reader.0).map(|_| d.word() | 1).collect();

    let mut main = Vec::new();
    main.extend((0..dirty.0).map(|_| Instr::Const(d.word())));
    main.push(Instr::Call(1));
    main.extend((0..dirty.2).map(|_| Instr::Drop));
    main.extend(reader_args.iter().map(|&a| Instr::Const(a)));
    main.push(Instr::Call(2));
    main.extend((0..reader.2).map(|_| Instr::Drop));
    main.push(Instr::Return);

    let mut dirty_body = Vec::new();
    for slot in 0..dirty.0 + dirty.1 {
        dirty_body.extend([Instr::Const(d.word() | 1), Instr::LocalSet(slot)]);
    }
    exit(&mut dirty_body, dirty.2, d);

    let mut reader_body = Vec::new();
    let mut probes = Vec::new();
    for local in 0..reader.1 {
        probe_local(&mut reader_body, reader.0 + local);
        probes.push(0);
    }
    for (param, &arg) in reader_args.iter().enumerate() {
        probe_local(&mut reader_body, param as u16);
        probes.push(arg);
    }
    exit(&mut reader_body, reader.2, d);

    Program {
        module: module(imports(d), sigs, [main, dirty_body, reader_body]),
        args: vec![],
        expect: Some(Expect::Probes(probes)),
    }
}

/// Functions 1 and 2 call each other down to depth `bottom` ≥ 3. Each
/// activation probes its depth and a declared local it has not written
/// (must read 0), dirties that local, and probes it again after the deeper
/// call returned (the callee must not have touched the caller's slots).
fn chain_program(d: &mut Dice) -> Program {
    let bottom = 3 + d.below(20);
    let salt = d.word() | 1;
    let link = |d: &mut Dice, next: u16| {
        let locals = 1 + d.below(4) as u16;
        let scratch = 1 + d.below(locals.into()) as u16;
        let mut code = Vec::new();
        probe_local(&mut code, 0);
        probe_local(&mut code, scratch);
        code.extend([
            Instr::LocalGet(0),
            Instr::Const(salt),
            Instr::Mul,
            Instr::LocalSet(scratch),
            Instr::LocalGet(0),
            Instr::Const(bottom),
            Instr::GeU,
            Instr::JumpIfNonZero(16),
            Instr::LocalGet(0),
            Instr::Const(1),
            Instr::Add,
            Instr::Call(next),
        ]);
        probe_local(&mut code, scratch);
        code.push(Instr::Return);
        ((1, locals, 0), code)
    };
    let (sig1, body1) = link(d, 2);
    let (sig2, body2) = link(d, 1);
    // Twice, so the second descent lands on slots the first one dirtied.
    let main = vec![
        Instr::Const(1),
        Instr::Call(1),
        Instr::Const(1),
        Instr::Call(1),
        Instr::Return,
    ];
    let mut probes = Vec::new();
    for _ in 0..2 {
        for depth in 1..=bottom {
            probes.extend([depth, 0]);
        }
        for depth in (1..=bottom).rev() {
            probes.push(depth.wrapping_mul(salt));
        }
    }
    Program {
        module: module(imports(d), [(0, 0, 0), sig1, sig2], [main, body1, body2]),
        args: vec![],
        expect: Some(Expect::Probes(probes)),
    }
}

/// `main` calls function 1, which counts in a local for ever: the fuel runs
/// out inside the callee.
fn spin_program(d: &mut Dice) -> Program {
    let callee = (d.below(4) as u16, 1 + d.below(4) as u16, d.below(2) as u16);
    let counter = callee.0 + d.below(callee.1.into()) as u16;
    let mut main: Vec<Instr> = (0..callee.0).map(|_| Instr::Const(d.word())).collect();
    main.extend([Instr::Call(1), Instr::Return]);
    let spin = vec![
        Instr::LocalGet(counter),
        Instr::Const(1),
        Instr::Add,
        Instr::LocalSet(counter),
        Instr::Jump(0),
    ];
    Program {
        module: module(
            imports(d),
            [(0, 0, callee.2), callee, (0, 0, 0)],
            [main, spin, vec![Instr::Return]],
        ),
        args: vec![],
        expect: Some(Expect::Trap(Trap::OutOfFuel, FUEL)),
    }
}

/// Function 1 calls itself, with locals, until the frame limit refuses.
fn recurse_program(d: &mut Dice) -> Program {
    let callee = (d.below(3) as u16, 1 + d.below(4) as u16, 0);
    let args =
        |d: &mut Dice| -> Vec<Instr> { (0..callee.0).map(|_| Instr::Const(d.word())).collect() };
    let mut main = args(d);
    main.extend([Instr::Call(1), Instr::Return]);
    let mut body = vec![Instr::Const(d.word() | 1), Instr::LocalSet(callee.0)];
    body.extend(args(d));
    body.extend([Instr::Call(1), Instr::Return]);
    // main's pushes and call, then 255 nested activations that each run
    // their whole prefix, and the 256th call's charge before the refusal.
    let per_level = 2 + u64::from(callee.0) + 9;
    let fuel = u64::from(callee.0) + 9 + 255 * per_level;
    Program {
        module: module(
            imports(d),
            [(0, 0, 0), callee, (0, 0, 0)],
            [main, body, vec![Instr::Return]],
        ),
        args: vec![],
        expect: Some(Expect::Trap(Trap::CallDepthExceeded, fuel)),
    }
}

/// One operand too few at a `Call` (even programs) or a `HostCall` (odd
/// ones), at the top level or one call down.
fn underflow_program(d: &mut Dice, at_host_call: bool) -> Program {
    let mut imports = imports(d);
    imports[0].params = 1 + d.below(3) as u16;
    let callee = (1 + d.below(4) as u16, d.below(3) as u16, 0);
    let (needs, call, cost) = if at_host_call {
        (imports[0].params, Instr::HostCall(0), 33)
    } else {
        (callee.0, Instr::Call(2), 9)
    };
    let mut short: Vec<Instr> = (1..needs).map(|_| Instr::Const(d.word())).collect();
    short.extend([call, Instr::Return]);
    let fuel_in_short = u64::from(needs) - 1 + cost;
    let nested = d.below(2) == 0;
    let (main, fuel) = if nested {
        (vec![Instr::Call(1), Instr::Return], 9 + fuel_in_short)
    } else {
        (short.clone(), fuel_in_short)
    };
    Program {
        module: module(
            imports,
            [(0, 0, 0), (0, 2, 0), callee],
            [main, short, vec![Instr::Return]],
        ),
        args: vec![],
        expect: Some(Expect::Trap(Trap::StackUnderflow, fuel)),
    }
}

fn program(index: usize) -> Program {
    let d = &mut Dice::new(index);
    match index % 32 {
        0 => rezero_program(d),
        1 => chain_program(d),
        2 => spin_program(d),
        3 => recurse_program(d),
        4 => underflow_program(d, index % 64 >= 32),
        shape => random_program(
            d,
            match shape % 9 {
                0 => 100,
                1 | 2 => 20,
                3..=5 => 5,
                _ => 0,
            },
        ),
    }
}

struct Run {
    outcome: Result<Option<u64>, Trap>,
    fuel: u64,
    transcript: Vec<(u16, Vec<u64>)>,
    digest: String,
}

fn run(program: &Program) -> Run {
    let limits = Limits {
        fuel: FUEL,
        ..Limits::default()
    };
    let mut host = Recorder {
        imports: program.module.imports.clone(),
        transcript: Vec::new(),
    };
    let mut instance =
        Instance::new(program.module.clone(), limits).expect("generator emits valid modules");
    let outcome = instance.invoke("main", &program.args, &mut host);
    let memory = instance
        .memory
        .read(0, instance.memory.len() as u64)
        .expect("whole memory");
    let mut fold = Sha256::new();
    fold.update(format!("{outcome:?}").as_bytes())
        .update(&instance.last_fuel_used.to_le_bytes())
        .update(&distrust_crypto::sha256(memory));
    for (index, args) in &host.transcript {
        fold.update(&index.to_le_bytes())
            .update(&(args.len() as u64).to_le_bytes());
        for arg in args {
            fold.update(&arg.to_le_bytes());
        }
    }
    let digest = fold.finalize()[..16]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    Run {
        outcome,
        fuel: instance.last_fuel_used,
        transcript: host.transcript,
        digest,
    }
}

/// Every program's digest equals the one recorded on the parent's engine,
/// and the directed programs did what their skeleton is for.
#[test]
fn engine_reproduces_the_recorded_digests() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), PROGRAMS, "one recorded digest per program");
    let mut mismatches = Vec::new();
    for (index, want) in golden.iter().enumerate() {
        let got = run(&program(index));
        if got.digest != *want {
            mismatches.push(format!(
                "#{index}: {:?} after {} fuel",
                got.outcome, got.fuel
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {PROGRAMS} programs differ from the recorded engine: {mismatches:#?}",
        mismatches.len()
    );
}

/// The generator reaches the cases an activation-layout change can break.
#[test]
fn generator_reaches_the_named_cases() {
    let mut seen = std::collections::BTreeSet::new();
    for index in 0..PROGRAMS {
        let program = program(index);
        let run = run(&program);
        let probes: Vec<u64> = run
            .transcript
            .iter()
            .filter(|(import, _)| *import == PROBE)
            .map(|(_, args)| args[0])
            .collect();
        match &program.expect {
            Some(Expect::Probes(want)) => {
                assert_eq!(&probes, want, "#{index}: {:?}", run.outcome);
                assert_eq!(run.outcome, Ok(None), "#{index}");
                seen.insert(match index % 32 {
                    0 => "declared local read as 0 on slots an earlier activation dirtied",
                    _ => "call at depth >= 3 with locals",
                });
            }
            Some(Expect::Trap(trap, fuel)) => {
                assert_eq!(run.outcome.as_ref(), Err(trap), "#{index}");
                assert_eq!(run.fuel, *fuel, "#{index}");
                seen.insert(match (trap, index % 64 >= 32) {
                    (Trap::OutOfFuel, _) => "out of fuel inside a callee",
                    (Trap::CallDepthExceeded, _) => "call depth exceeded",
                    (_, false) => "stack underflow at Call",
                    (_, true) => "stack underflow at HostCall",
                });
            }
            None => {
                seen.insert(match &run.outcome {
                    Ok(_) => "random: returned",
                    Err(Trap::Host(msg)) if msg.starts_with("recorder refuses") => {
                        if run.transcript.len() >= 2 {
                            "random: host error mid-program"
                        } else {
                            "random: host error on the first call"
                        }
                    }
                    Err(Trap::Host(_)) => "random: import returned the wrong count",
                    Err(Trap::OutOfFuel) => "random: out of fuel",
                    Err(Trap::OutOfBounds { .. }) => "random: out of bounds",
                    Err(Trap::StackUnderflow) => "random: stack underflow",
                    Err(Trap::CallDepthExceeded) => "random: call depth exceeded",
                    Err(Trap::DivisionByZero) => "random: division by zero",
                    Err(Trap::Explicit) => "random: explicit trap",
                    Err(Trap::FellOffEnd) => "random: fell off the end",
                    Err(other) => panic!("#{index}: unexpected {other:?}"),
                });
            }
        }
    }
    for case in [
        "declared local read as 0 on slots an earlier activation dirtied",
        "call at depth >= 3 with locals",
        "out of fuel inside a callee",
        "call depth exceeded",
        "stack underflow at Call",
        "stack underflow at HostCall",
        "random: returned",
        "random: host error mid-program",
        "random: import returned the wrong count",
        "random: out of fuel",
        "random: out of bounds",
        "random: stack underflow",
        "random: call depth exceeded",
        "random: division by zero",
        "random: explicit trap",
        "random: fell off the end",
    ] {
        assert!(
            seen.contains(case),
            "no program reached: {case}; saw {seen:?}"
        );
    }
}

/// Rewrites `engine_golden.digests` from the engine in this checkout. Run
/// it only on a commit whose engine is the reference:
/// `cargo test -p distrust-sandbox --test engine_golden -- --ignored`.
#[test]
#[ignore = "regenerates the golden table"]
fn regenerate() {
    let table: String = (0..PROGRAMS)
        .map(|index| run(&program(index)).digest + "\n")
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/engine_golden.digests");
    std::fs::write(path, table).expect("write the golden table");
}
