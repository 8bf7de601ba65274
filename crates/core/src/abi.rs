//! The framework ↔ application ABI.
//!
//! The framework is application-independent (§4.1): it runs *any* module
//! that speaks this calling convention, the moral equivalent of the
//! Wasm-module interface the paper's prototype uses under Node.js.
//!
//! Convention:
//! * The framework writes the request payload into guest memory at
//!   [`INBOX_ADDR`] (at most [`INBOX_MAX`] bytes).
//! * It invokes the exported function `handle` with
//!   `(method_id, INBOX_ADDR, payload_len)`.
//! * The guest writes its response at [`OUTBOX_ADDR`] and returns the
//!   response length (at most [`OUTBOX_MAX`]).
//! * Host imports are dispatched **by name**, at each call, to the
//!   [`AppHost`] the trust domain was configured with. Nothing resolves
//!   them earlier: a module that imports a name its host does not know
//!   installs and instantiates, and the call traps
//!   ([`distrust_sandbox::Trap::Host`]) when it is reached.
//! * The import table comes from the module, so the host must not trust
//!   it: each import receives exactly as many arguments as the *guest*
//!   declared for it. A host that is handed the wrong count, or an
//!   address, length or index it cannot use, returns `Err`; a host that
//!   panics instead is contained by [`app_call`] as a trap.

use distrust_sandbox::vm::{Host, Memory};
use distrust_sandbox::{Instance, Module};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Guest address where request payloads are written.
pub const INBOX_ADDR: u64 = 4096;
/// Maximum request payload.
pub const INBOX_MAX: usize = 16 * 1024;
/// Guest address where the guest writes responses.
pub const OUTBOX_ADDR: u64 = 20480;
/// Maximum response payload.
pub const OUTBOX_MAX: usize = 16 * 1024;
/// The export every application must provide.
pub const HANDLE_EXPORT: &str = "handle";

/// Host functions an application may import, dispatched by name.
///
/// Implementations are per-trust-domain (they may close over the enclave's
/// sealed state, e.g. a threshold key share).
pub trait AppHost: Send + 'static {
    /// Invokes the import `name` with `args`; may read/write guest memory.
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String>;
}

/// An [`AppHost`] with no imports.
pub struct NoImports;

impl AppHost for NoImports {
    fn call(
        &mut self,
        name: &str,
        _args: &[u64],
        _memory: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        Err(format!(
            "application imported unknown host function {name:?}"
        ))
    }
}

/// Adapts an [`AppHost`] (name-addressed) to the sandbox [`Host`]
/// (index-addressed) using the module's import table.
pub struct HostAdapter<'a> {
    import_names: &'a [String],
    app_host: &'a mut dyn AppHost,
}

impl<'a> HostAdapter<'a> {
    /// Builds the adapter from a module's import table.
    pub fn new(import_names: &'a [String], app_host: &'a mut dyn AppHost) -> Self {
        Self {
            import_names,
            app_host,
        }
    }
}

impl Host for HostAdapter<'_> {
    fn call(&mut self, index: u16, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        let name = self
            .import_names
            .get(index as usize)
            .ok_or_else(|| format!("import index {index} out of range"))?;
        self.app_host.call(name, args, memory)
    }
}

/// Extracts the import names of a module (cached by the framework when the
/// app is instantiated).
pub fn import_names(module: &Module) -> Vec<String> {
    module.imports.iter().map(|i| i.name.clone()).collect()
}

/// Errors from an application call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppCallError {
    /// Request exceeded [`INBOX_MAX`].
    RequestTooLarge(usize),
    /// The module lacks the `handle` export or it trapped.
    Trap(String),
    /// The guest returned a response length beyond [`OUTBOX_MAX`].
    ResponseTooLarge(u64),
    /// The guest returned no value.
    NoResponse,
}

impl core::fmt::Display for AppCallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::RequestTooLarge(n) => write!(f, "request of {n} bytes exceeds inbox"),
            Self::Trap(t) => write!(f, "application trapped: {t}"),
            Self::ResponseTooLarge(n) => write!(f, "response of {n} bytes exceeds outbox"),
            Self::NoResponse => write!(f, "application returned no value"),
        }
    }
}

impl std::error::Error for AppCallError {}

/// Performs one application call following the ABI. Whatever the guest or
/// the app host does — trap, run out of fuel, return an error, panic — the
/// caller gets an [`AppCallError`] and keeps running.
pub fn app_call(
    instance: &mut Instance,
    import_names: &[String],
    app_host: &mut dyn AppHost,
    method_id: u64,
    payload: &[u8],
) -> Result<Vec<u8>, AppCallError> {
    if payload.len() > INBOX_MAX {
        return Err(AppCallError::RequestTooLarge(payload.len()));
    }
    instance
        .memory
        .write(INBOX_ADDR, payload)
        .map_err(|t| AppCallError::Trap(t.to_string()))?;
    let mut host = HostAdapter::new(import_names, app_host);
    let args = [method_id, INBOX_ADDR, payload.len() as u64];
    // The app host is the application developer's code, not the
    // framework's. A panic in it must cost this one request, not the
    // thread that serves the domain: whatever the host had half-done is
    // strictly less harmful than a domain that no longer answers audits
    // (the argument `HealthyMutex` makes for poisoned locks). The panic
    // hook has already written the message where the operator reads it.
    let ret = catch_unwind(AssertUnwindSafe(|| {
        instance.invoke(HANDLE_EXPORT, &args, &mut host)
    }))
    .map_err(|_| AppCallError::Trap("host import panicked".into()))?
    .map_err(|t| AppCallError::Trap(t.to_string()))?;
    let out_len = ret.ok_or(AppCallError::NoResponse)?;
    if out_len as usize > OUTBOX_MAX {
        return Err(AppCallError::ResponseTooLarge(out_len));
    }
    let bytes = instance
        .memory
        .read(OUTBOX_ADDR, out_len)
        .map_err(|t| AppCallError::Trap(t.to_string()))?;
    Ok(bytes.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_sandbox::{FuncBuilder, Instr, Limits, ModuleBuilder};

    /// An echo app: copies the inbox to the outbox.
    fn echo_module() -> Module {
        let mut mb = ModuleBuilder::new(1, 1);
        // handle(method, addr, len) -> len ; copy byte-by-byte
        let mut f = FuncBuilder::new(3, 1, 1);
        // local 3 = i
        f.constant(0).lset(3);
        f.label("loop")
            .lget(3)
            .lget(2)
            .op(Instr::GeU)
            .jnz("done")
            // outbox[i] = inbox[addr + i]
            .constant(OUTBOX_ADDR)
            .lget(3)
            .add()
            .lget(1)
            .lget(3)
            .add()
            .load8(0)
            .store8(0)
            .lget(3)
            .constant(1)
            .add()
            .lset(3)
            .jmp("loop")
            .label("done")
            .lget(2)
            .ret();
        let idx = mb.function(f.build().unwrap());
        mb.export(HANDLE_EXPORT, idx);
        mb.build()
    }

    /// An app that calls a host import and returns its result as one byte.
    fn hostcall_module() -> Module {
        let mut mb = ModuleBuilder::new(1, 1);
        let imp = mb.import("env.magic", 1, 1);
        let mut f = FuncBuilder::new(3, 0, 1);
        f.lget(0) // method id
            .host(imp)
            .constant(OUTBOX_ADDR)
            .op(Instr::Swap)
            .store8(0)
            .constant(1)
            .ret();
        let idx = mb.function(f.build().unwrap());
        mb.export(HANDLE_EXPORT, idx);
        mb.build()
    }

    #[test]
    fn echo_round_trip() {
        let module = echo_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let mut host = NoImports;
        let out = app_call(&mut inst, &names, &mut host, 0, b"hello app").unwrap();
        assert_eq!(out, b"hello app");
        // Empty payload.
        let out = app_call(&mut inst, &names, &mut host, 0, b"").unwrap();
        assert_eq!(out, b"");
    }

    #[test]
    fn oversized_request_rejected() {
        let module = echo_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let big = vec![0u8; INBOX_MAX + 1];
        assert!(matches!(
            app_call(&mut inst, &names, &mut NoImports, 0, &big),
            Err(AppCallError::RequestTooLarge(_))
        ));
    }

    #[test]
    fn host_dispatch_by_name() {
        struct Magic;
        impl AppHost for Magic {
            fn call(
                &mut self,
                name: &str,
                args: &[u64],
                _m: &mut Memory,
            ) -> Result<Vec<u64>, String> {
                assert_eq!(name, "env.magic");
                Ok(vec![args[0] * 2])
            }
        }
        let module = hostcall_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let out = app_call(&mut inst, &names, &mut Magic, 21, b"").unwrap();
        assert_eq!(out, vec![42u8]);
    }

    /// The guest declares how many arguments an import gets; a host that
    /// indexes past them panics, and `app_call` reports that as a trap.
    #[test]
    fn panicking_host_is_a_trap_and_the_next_call_is_served() {
        struct Second;
        impl AppHost for Second {
            fn call(&mut self, _: &str, args: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
                Ok(vec![args[1]])
            }
        }
        struct Doubler;
        impl AppHost for Doubler {
            fn call(&mut self, _: &str, args: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
                Ok(vec![args[0] * 2])
            }
        }
        let module = hostcall_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let err = app_call(&mut inst, &names, &mut Second, 21, b"").unwrap_err();
        assert!(
            matches!(&err, AppCallError::Trap(msg) if msg.contains("host import panicked")),
            "{err}"
        );
        let out = app_call(&mut inst, &names, &mut Doubler, 21, b"").unwrap();
        assert_eq!(out, vec![42u8]);
    }

    #[test]
    fn missing_handle_export_is_trap() {
        let mut mb = ModuleBuilder::new(1, 1);
        let mut f = FuncBuilder::new(0, 0, 0);
        f.ret();
        let idx = mb.function(f.build().unwrap());
        mb.export("not_handle", idx);
        let module = mb.build();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        assert!(matches!(
            app_call(&mut inst, &names, &mut NoImports, 0, b""),
            Err(AppCallError::Trap(_))
        ));
    }

    #[test]
    fn lying_response_length_rejected() {
        // handle returns an absurd outbox length.
        let mut mb = ModuleBuilder::new(1, 1);
        let mut f = FuncBuilder::new(3, 0, 1);
        f.constant(u64::MAX / 2).ret();
        let idx = mb.function(f.build().unwrap());
        mb.export(HANDLE_EXPORT, idx);
        let module = mb.build();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        assert!(matches!(
            app_call(&mut inst, &names, &mut NoImports, 0, b""),
            Err(AppCallError::ResponseTooLarge(_))
        ));
    }
}
