//! Sandbox modules: functions, imports, data segments, exports — plus
//! static validation and canonical serialization.
//!
//! A module's canonical bytes are what the framework measures: the "code
//! digest" appended to each trust domain's log is `sha256(module.to_wire())`.

use crate::isa::Instr;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};
use distrust_wire::wire_struct;

/// Size of one linear-memory page (64 KiB, matching Wasm).
pub const PAGE_SIZE: usize = 64 * 1024;
/// Hard cap on memory pages a module may request.
pub const MAX_PAGES: u32 = 256; // 16 MiB
/// Hard cap on the slots (`params + locals`) one function may declare. A
/// `Call` costs the same fuel whatever the callee declares and the VM
/// zeroes every declared slot on entry, so the cap is what bounds the
/// work and memory of a call (2 KiB a frame).
pub const MAX_FRAME_SLOTS: u32 = 256;

/// Signature of an imported host function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportSig {
    /// Symbolic name, e.g. `"env.g1_double"`. The host resolves by index,
    /// but names make modules self-describing and auditable.
    pub name: String,
    /// Number of `u64` arguments popped.
    pub params: u16,
    /// Number of `u64` results pushed.
    pub returns: u16,
}

wire_struct!(ImportSig {
    name: String,
    params: u16,
    returns: u16,
});

/// A function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Number of parameters (these occupy local slots `0..params`).
    pub params: u16,
    /// Number of additional local slots (zero-initialized).
    pub locals: u16,
    /// Number of return values (0 or 1).
    pub returns: u16,
    /// The instruction sequence.
    pub code: Vec<Instr>,
}

wire_struct!(Function {
    params: u16,
    locals: u16,
    returns: u16,
    #[seq] code: Vec<Instr>,
});

/// Initial memory contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Byte offset in linear memory.
    pub offset: u32,
    /// Bytes copied at instantiation.
    pub bytes: Vec<u8>,
}

wire_struct!(DataSegment {
    offset: u32,
    bytes: Vec<u8>,
});

/// A named export pointing at a function index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Export {
    /// Export name clients invoke.
    pub name: String,
    /// Target function index.
    pub function: u32,
}

wire_struct!(Export {
    name: String,
    function: u32,
});

/// A complete sandbox module.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Module {
    /// Imported host functions (indices used by `HostCall`).
    pub imports: Vec<ImportSig>,
    /// Function bodies (indices used by `Call`).
    pub functions: Vec<Function>,
    /// Named entry points.
    pub exports: Vec<Export>,
    /// Initial data.
    pub data: Vec<DataSegment>,
    /// Initial memory size in pages.
    pub initial_pages: u32,
    /// Maximum memory size in pages (`MemGrow` cap).
    pub max_pages: u32,
}

impl Encode for Module {
    fn encode(&self, out: &mut Vec<u8>) {
        // Version tag so future format changes re-measure differently.
        out.extend_from_slice(b"DSBX1\0");
        encode_seq(&self.imports, out);
        encode_seq(&self.functions, out);
        encode_seq(&self.exports, out);
        encode_seq(&self.data, out);
        self.initial_pages.encode(out);
        self.max_pages.encode(out);
    }
}

impl Decode for Module {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let magic = distrust_wire::codec::take(input, 6)?;
        if magic != b"DSBX1\0" {
            return Err(DecodeError::Invalid("module magic"));
        }
        Ok(Self {
            imports: decode_seq(input)?,
            functions: decode_seq(input)?,
            exports: decode_seq(input)?,
            data: decode_seq(input)?,
            initial_pages: u32::decode(input)?,
            max_pages: u32::decode(input)?,
        })
    }
}

/// Static validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// Jump target outside the function body.
    JumpOutOfRange { function: u32, target: u32 },
    /// Local index beyond `params + locals`.
    BadLocal { function: u32, index: u16 },
    /// `params + locals` beyond [`MAX_FRAME_SLOTS`].
    TooManyLocals { function: u32, slots: u32 },
    /// Call target beyond the function table.
    BadCall { function: u32, target: u16 },
    /// Host call index beyond the import table.
    BadHostCall { function: u32, index: u16 },
    /// Export references a missing function.
    BadExport { name: String },
    /// Duplicate export name.
    DuplicateExport { name: String },
    /// Function declares more than one return value.
    TooManyReturns { function: u32 },
    /// Memory limits invalid (`initial > max` or `max > MAX_PAGES`).
    BadMemoryLimits,
    /// Data segment outside initial memory.
    DataOutOfRange { segment: usize },
    /// A function body is empty (must at least `Return` or `Trap`).
    EmptyFunction { function: u32 },
}

impl core::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::JumpOutOfRange { function, target } => {
                write!(f, "fn {function}: jump target {target} out of range")
            }
            Self::BadLocal { function, index } => {
                write!(f, "fn {function}: local {index} out of range")
            }
            Self::TooManyLocals { function, slots } => {
                write!(
                    f,
                    "fn {function}: {slots} frame slots exceed {MAX_FRAME_SLOTS}"
                )
            }
            Self::BadCall { function, target } => {
                write!(f, "fn {function}: call target {target} out of range")
            }
            Self::BadHostCall { function, index } => {
                write!(f, "fn {function}: host import {index} out of range")
            }
            Self::BadExport { name } => write!(f, "export {name:?} references missing function"),
            Self::DuplicateExport { name } => write!(f, "duplicate export {name:?}"),
            Self::TooManyReturns { function } => {
                write!(f, "fn {function}: more than one return value")
            }
            Self::BadMemoryLimits => write!(f, "invalid memory limits"),
            Self::DataOutOfRange { segment } => {
                write!(f, "data segment {segment} outside initial memory")
            }
            Self::EmptyFunction { function } => write!(f, "fn {function}: empty body"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Module {
    /// The module's code digest — the measurement the framework logs and
    /// the TEE attests to.
    pub fn digest(&self) -> distrust_crypto::Digest {
        distrust_crypto::sha256_many(&[b"distrust/module/v1", &self.to_wire()])
    }

    /// Looks up an export by name.
    pub fn export(&self, name: &str) -> Option<u32> {
        self.exports
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.function)
    }

    /// Statically validates the module. Every module must pass validation
    /// before instantiation; the VM additionally enforces all properties
    /// dynamically (defense in depth — the validator is part of the TCB the
    /// paper's framework seals into the TEE).
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.initial_pages > self.max_pages || self.max_pages > MAX_PAGES {
            return Err(ValidateError::BadMemoryLimits);
        }
        let mem_bytes = self.initial_pages as usize * PAGE_SIZE;
        for (i, seg) in self.data.iter().enumerate() {
            let end = seg.offset as usize + seg.bytes.len();
            if end > mem_bytes {
                return Err(ValidateError::DataOutOfRange { segment: i });
            }
        }
        let mut export_names = std::collections::HashSet::new();
        for e in &self.exports {
            if e.function as usize >= self.functions.len() {
                return Err(ValidateError::BadExport {
                    name: e.name.clone(),
                });
            }
            if !export_names.insert(e.name.as_str()) {
                return Err(ValidateError::DuplicateExport {
                    name: e.name.clone(),
                });
            }
        }
        for (fi, func) in self.functions.iter().enumerate() {
            let fi32 = fi as u32;
            if func.returns > 1 {
                return Err(ValidateError::TooManyReturns { function: fi32 });
            }
            if func.code.is_empty() {
                return Err(ValidateError::EmptyFunction { function: fi32 });
            }
            let nlocals = func.params as u32 + func.locals as u32;
            if nlocals > MAX_FRAME_SLOTS {
                return Err(ValidateError::TooManyLocals {
                    function: fi32,
                    slots: nlocals,
                });
            }
            let len = func.code.len() as u32;
            for instr in &func.code {
                match instr {
                    Instr::Jump(t) | Instr::JumpIfZero(t) | Instr::JumpIfNonZero(t)
                        if *t >= len =>
                    {
                        return Err(ValidateError::JumpOutOfRange {
                            function: fi32,
                            target: *t,
                        });
                    }
                    Instr::LocalGet(i) | Instr::LocalSet(i) if (*i as u32) >= nlocals => {
                        return Err(ValidateError::BadLocal {
                            function: fi32,
                            index: *i,
                        });
                    }
                    Instr::Call(t) if (*t as usize) >= self.functions.len() => {
                        return Err(ValidateError::BadCall {
                            function: fi32,
                            target: *t,
                        });
                    }
                    Instr::HostCall(i) if (*i as usize) >= self.imports.len() => {
                        return Err(ValidateError::BadHostCall {
                            function: fi32,
                            index: *i,
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_module() -> Module {
        Module {
            imports: vec![],
            functions: vec![Function {
                params: 0,
                locals: 0,
                returns: 1,
                code: vec![Instr::Const(42), Instr::Return],
            }],
            exports: vec![Export {
                name: "main".into(),
                function: 0,
            }],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        }
    }

    #[test]
    fn valid_module_passes() {
        assert_eq!(trivial_module().validate(), Ok(()));
    }

    #[test]
    fn wire_round_trip() {
        // Two page counts that differ, so a decode reading them in the
        // wrong order fails here.
        let m = Module {
            max_pages: 4,
            ..trivial_module()
        };
        let bytes = m.to_wire();
        assert_eq!(Module::from_wire(&bytes), Ok(m));
    }

    #[test]
    fn digest_changes_with_code() {
        let a = trivial_module();
        let mut b = trivial_module();
        b.functions[0].code[0] = Instr::Const(43);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(trivial_module().digest(), trivial_module().digest());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = trivial_module().to_wire();
        bytes[0] ^= 0xff;
        assert!(Module::from_wire(&bytes).is_err());
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let mut m = trivial_module();
        m.functions[0].code = vec![Instr::Jump(5), Instr::Return];
        assert!(matches!(
            m.validate(),
            Err(ValidateError::JumpOutOfRange { .. })
        ));
    }

    #[test]
    fn bad_local_rejected() {
        let mut m = trivial_module();
        m.functions[0].code = vec![Instr::LocalGet(0), Instr::Return];
        assert!(matches!(m.validate(), Err(ValidateError::BadLocal { .. })));
    }

    #[test]
    fn frame_slots_are_capped() {
        let mut m = trivial_module();
        m.functions[0].params = 6;
        m.functions[0].locals = 250;
        assert_eq!(m.validate(), Ok(()));
        m.functions[0].locals = 251;
        assert_eq!(
            m.validate(),
            Err(ValidateError::TooManyLocals {
                function: 0,
                slots: 257
            })
        );
    }

    #[test]
    fn bad_call_targets_rejected() {
        let mut m = trivial_module();
        m.functions[0].code = vec![Instr::Call(9), Instr::Return];
        assert!(matches!(m.validate(), Err(ValidateError::BadCall { .. })));
        let mut m = trivial_module();
        m.functions[0].code = vec![Instr::HostCall(0), Instr::Return];
        assert!(matches!(
            m.validate(),
            Err(ValidateError::BadHostCall { .. })
        ));
    }

    #[test]
    fn export_validation() {
        let mut m = trivial_module();
        m.exports[0].function = 3;
        assert!(matches!(m.validate(), Err(ValidateError::BadExport { .. })));
        let mut m = trivial_module();
        m.exports.push(Export {
            name: "main".into(),
            function: 0,
        });
        assert!(matches!(
            m.validate(),
            Err(ValidateError::DuplicateExport { .. })
        ));
    }

    #[test]
    fn memory_validation() {
        let mut m = trivial_module();
        m.initial_pages = 2;
        m.max_pages = 1;
        assert_eq!(m.validate(), Err(ValidateError::BadMemoryLimits));
        let mut m = trivial_module();
        m.max_pages = MAX_PAGES + 1;
        assert_eq!(m.validate(), Err(ValidateError::BadMemoryLimits));
        let mut m = trivial_module();
        m.data.push(DataSegment {
            offset: PAGE_SIZE as u32 - 2,
            bytes: vec![1, 2, 3],
        });
        assert!(matches!(
            m.validate(),
            Err(ValidateError::DataOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_function_rejected() {
        let mut m = trivial_module();
        m.functions[0].code.clear();
        assert!(matches!(
            m.validate(),
            Err(ValidateError::EmptyFunction { .. })
        ));
    }

    #[test]
    fn multi_return_rejected() {
        let mut m = trivial_module();
        m.functions[0].returns = 2;
        assert!(matches!(
            m.validate(),
            Err(ValidateError::TooManyReturns { .. })
        ));
    }

    #[test]
    fn export_lookup() {
        let m = trivial_module();
        assert_eq!(m.export("main"), Some(0));
        assert_eq!(m.export("missing"), None);
    }
}
