//! # distrust-sandbox
//!
//! The sandboxed execution environment of the `distrust` framework — this
//! workspace's stand-in for the WebAssembly/Node.js sandbox of the paper's
//! prototype (§5), per the substitution table in DESIGN.md.
//!
//! §4.1 requires that "the executed code cannot 'escape' the sandbox and
//! have an effect on the system outside the sandbox (i.e. the framework)".
//! The VM here delivers that with an isolated, bounds-checked linear
//! memory, fuel metering (so hostile updates cannot wedge the framework),
//! bounded value/call stacks, and an explicit host-import boundary.
//!
//! * [`isa`] — the stack-machine instruction set with canonical encoding.
//! * [`module`] — modules (functions, imports, data, exports), validation,
//!   and the **code digest** that trust domains log and attest to.
//! * [`vm`] — the interpreter: [`vm::Instance`], [`vm::Host`], [`vm::Trap`].
//! * [`builder`] — programmatic construction with symbolic labels.
//! * [`guests`] — reference guest programs, including a complete SHA-256
//!   kernel validated against the native implementation.

pub mod builder;
pub mod guests;
pub mod isa;
pub mod module;
pub mod vm;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use isa::Instr;
pub use module::{Export, Function, ImportSig, Module, ValidateError, PAGE_SIZE};
pub use vm::{Host, Instance, Limits, Memory, NoHost, Trap};
