//! The full developer workflow: write application code for the sandbox
//! with `ModuleBuilder`, sign it, deploy it across trust domains, audit,
//! and call it — no Rust host functions required.
//!
//! This is the reproduction's analogue of the paper's "developer compiles
//! C++ to Wasm with Emscripten" pipeline (§5), at toy scale.
//!
//! ```sh
//! cargo run --release --example custom_app
//! ```

use distrust::core::abi::{AppHost, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::{AppSpec, Deployment, FanoutCall, NoImports, TrustPolicy};
use distrust::sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};

/// The application a developer would write and publish: the module the
/// framework ABI asks for,
///   `handle(method, inbox_addr, len) -> outbox length`,
/// with two methods.
/// Method 1: checksum — single byte, sum of the payload mod 256.
/// Method 2: reverse — the payload, reversed.
fn app_module() -> Module {
    // Locals: 0 = method, 1 = inbox address, 2 = length, 3 = i, 4 = acc.
    let mut f = FuncBuilder::new(3, 2, 1);
    f.lget(0).constant(1).op(Instr::Eq).jnz("checksum");
    f.lget(0).constant(2).op(Instr::Eq).jnz("reverse");
    f.op(Instr::Trap);

    f.label("checksum");
    f.constant(0).lset(3).constant(0).lset(4);
    f.label("sum_loop");
    f.lget(3).lget(2).op(Instr::GeU).jnz("sum_done");
    f.lget(4).lget(1).lget(3).add().load8(0).add().lset(4);
    f.lget(3).constant(1).add().lset(3).jmp("sum_loop");
    f.label("sum_done");
    f.constant(OUTBOX_ADDR);
    f.lget(4).constant(0xff).and().store8(0);
    f.constant(1).ret();

    // outbox[i] = inbox[len - 1 - i]
    f.label("reverse");
    f.constant(0).lset(3);
    f.label("rev_loop");
    f.lget(3).lget(2).op(Instr::GeU).jnz("rev_done");
    f.constant(OUTBOX_ADDR).lget(3).add();
    f.lget(1).lget(2).add().constant(1).sub();
    f.lget(3).sub().load8(0).store8(0);
    f.lget(3).constant(1).add().lset(3).jmp("rev_loop");
    f.label("rev_done");
    f.lget(2).ret();

    let mut module = ModuleBuilder::new(1, 1);
    let handle = module.function(f.build().expect("labels resolve"));
    module.export(HANDLE_EXPORT, handle);
    module.build()
}

fn main() {
    println!("== custom app: assembly → signed release → audited deployment ==\n");

    // 1. "Compile" the published source. Anyone can re-run this and check
    //    the digest — that is the whole auditability story.
    let module = app_module();
    module.validate().expect("a valid module");
    let digest = module.digest();
    println!(
        "assembled {} bytes of module, code digest {}…",
        distrust::wire::Encode::to_wire(&module).len(),
        hex(&digest[..8])
    );

    // 2. Deploy across three trust domains.
    let spec = AppSpec {
        name: "checksum-service".into(),
        module,
        notes: "v1: checksum + reverse".into(),
        hosts: (0..3)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    let deployment = Deployment::launch(spec, b"custom app seed").expect("launch");
    let mut client = deployment.client(b"user");

    // 3. Open a session pinned to the digest of the source we just
    //    compiled ourselves: the audit runs before the first call and the
    //    attested digest must equal our local build, or nothing is served.
    let mut session = client.session(TrustPolicy::pinned(digest));

    // 4. Use it.
    let payload = b"hello distributed trust";
    let checksum = session.call(1, 1, payload).expect("checksum");
    let expected: u8 = payload.iter().fold(0u8, |a, b| a.wrapping_add(*b));
    println!(
        "checksum({:?}) = {} (expected {})",
        String::from_utf8_lossy(payload),
        checksum[0],
        expected
    );
    assert_eq!(checksum, vec![expected]);
    let report = session.last_audit().expect("audit ran before the call");
    assert!(report.is_clean());
    assert_eq!(deployment.initial_app_digest, report.app_digest.unwrap());
    println!("gating audit clean; attested digest matches locally compiled source ✅\n");

    let reversed = session.call(2, 2, payload).expect("reverse");
    println!("reverse  = {:?}", String::from_utf8_lossy(&reversed));
    assert_eq!(reversed, payload.iter().rev().copied().collect::<Vec<u8>>());

    // All domains agree, of course — one pipelined fan-out asks them all.
    let fanout = session
        .fanout(&FanoutCall::broadcast(1, payload.to_vec()))
        .expect("fanout");
    fanout.require().expect("all domains answered");
    for (d, resp) in fanout.successes() {
        assert_eq!(resp, &[expected], "domain {d}");
    }
    println!("\nall 3 domains serve identical, audited code ✅");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
