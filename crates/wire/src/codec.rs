//! Deterministic binary codec.
//!
//! Everything in the workspace that is hashed, signed, or appended to a log
//! implements [`Encode`]/[`Decode`] so that byte representations are
//! canonical across processes and platforms: a digest computed by a trust
//! domain must equal the digest recomputed by an auditing client. We do not
//! use serde for these structures because serde formats make no canonicality
//! promises.
//!
//! Format rules (little-endian throughout):
//! * fixed-width integers: raw little-endian bytes;
//! * `bool`: one byte, `0` or `1` (decoding rejects other values);
//! * byte strings / vectors: `u32` length prefix then elements;
//! * `Option<T>`: one tag byte then the payload;
//! * structs: fields in declaration order, no padding, no field tags;
//! * enums: `u8` discriminant then the variant payload.

/// Maximum length accepted for any length-prefixed collection (16 MiB).
/// Prevents a malicious peer from triggering huge allocations.
pub const MAX_COLLECTION_LEN: usize = 16 * 1024 * 1024;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded [`MAX_COLLECTION_LEN`].
    LengthOverflow(usize),
    /// An enum discriminant or bool byte was out of range.
    InvalidTag(u8),
    /// A semantic validity check failed (e.g. non-canonical point).
    Invalid(&'static str),
    /// Trailing bytes remained after a complete top-level decode.
    TrailingBytes(usize),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnexpectedEnd => write!(f, "input ended mid-value"),
            Self::LengthOverflow(n) => write!(f, "length prefix {n} exceeds limit"),
            Self::InvalidTag(t) => write!(f, "invalid tag byte {t}"),
            Self::Invalid(what) => write!(f, "invalid value: {what}"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a value into canonical bytes.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserializes a value from canonical bytes.
pub trait Decode: Sized {
    /// Reads a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Convenience: decodes a complete buffer, rejecting trailing bytes.
    fn from_wire(mut input: &[u8]) -> Result<Self, DecodeError> {
        let value = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingBytes(input.len()));
        }
        Ok(value)
    }
}

/// Reads exactly `n` bytes from the front of the input.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_int {
    ($($t:ty),*) => {
        $(
            impl Encode for $t {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }
            impl Decode for $t {
                fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                    let bytes = take(input, core::mem::size_of::<$t>())?;
                    let arr = bytes.try_into().map_err(|_| DecodeError::UnexpectedEnd)?;
                    Ok(<$t>::from_le_bytes(arr))
                }
            }
        )*
    };
}

impl_int!(u8, u16, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidTag(other)),
        }
    }
}

/// Encodes a `usize` length as `u32`, panicking above `u32::MAX` (lengths
/// that large are already rejected by [`MAX_COLLECTION_LEN`]).
pub fn encode_len(len: usize, out: &mut Vec<u8>) {
    // lint:allow(panic): encoder-local invariant — every collection is capped at MAX_COLLECTION_LEN (far below u32::MAX) before it reaches an encoder, and a silent truncation here would corrupt signed bytes
    let len32 = u32::try_from(len).expect("collection length fits in u32");
    len32.encode(out);
}

/// Decodes and bounds-checks a length prefix.
pub fn decode_len(input: &mut &[u8]) -> Result<usize, DecodeError> {
    let len = u32::decode(input)? as usize;
    if len > MAX_COLLECTION_LEN {
        return Err(DecodeError::LengthOverflow(len));
    }
    Ok(len)
}

impl Encode for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = decode_len(input)?;
        Ok(take(input, len)?.to_vec())
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = decode_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("utf-8"))
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = take(input, N)?;
        bytes.try_into().map_err(|_| DecodeError::UnexpectedEnd)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(DecodeError::InvalidTag(other)),
        }
    }
}

// Generic Vec<T> for non-u8 element types would conflict with the Vec<u8>
// impl, so collections of structs use this explicit pair of helpers.

/// Encodes a slice of encodable values with a length prefix.
pub fn encode_seq<T: Encode>(items: &[T], out: &mut Vec<u8>) {
    encode_len(items.len(), out);
    for item in items {
        item.encode(out);
    }
}

/// Pre-parse reservation cap for length-prefixed sequences, in elements.
/// A hostile length prefix reserves at most this many slots before any
/// element has actually been parsed (the vector grows normally past it) —
/// without the cap, a 4-byte prefix inside a 16 MiB frame could demand
/// `len * size_of::<T>()` up front, ~512 MiB for 32-byte elements. 4096
/// elements keeps the worst pre-parse reservation around 64 KiB.
pub const SEQ_PREALLOC_LEN: usize = 4096;

/// Decodes a length-prefixed sequence.
pub fn decode_seq<T: Decode>(input: &mut &[u8]) -> Result<Vec<T>, DecodeError> {
    let len = decode_len(input)?;
    // Guard the loop: each element consumes at least one input byte in
    // every type this codec defines, so a length beyond the remaining
    // input can never be satisfied.
    if len > input.len() {
        return Err(DecodeError::LengthOverflow(len));
    }
    let mut items = Vec::with_capacity(len.min(SEQ_PREALLOC_LEN));
    for _ in 0..len {
        items.push(T::decode(input)?);
    }
    Ok(items)
}

/// Implements `Encode`/`Decode` for a struct field-by-field.
///
/// ```ignore
/// wire_struct!(MyMsg { seq: u64, payload: Vec<u8> });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),* $(,)? }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( self.$field.encode(out); )*
            }
        }
        impl $crate::codec::Decode for $name {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self {
                    $( $field: <$ty as $crate::codec::Decode>::decode(input)?, )*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trips() {
        let mut out = Vec::new();
        42u8.encode(&mut out);
        7u16.encode(&mut out);
        0xdead_beefu32.encode(&mut out);
        u64::MAX.encode(&mut out);
        (-5i64).encode(&mut out);
        let mut input = out.as_slice();
        assert_eq!(u8::decode(&mut input).unwrap(), 42);
        assert_eq!(u16::decode(&mut input).unwrap(), 7);
        assert_eq!(u32::decode(&mut input).unwrap(), 0xdead_beef);
        assert_eq!(u64::decode(&mut input).unwrap(), u64::MAX);
        assert_eq!(i64::decode(&mut input).unwrap(), -5);
        assert!(input.is_empty());
    }

    #[test]
    fn bool_strictness() {
        assert_eq!(bool::from_wire(&[1]), Ok(true));
        assert_eq!(bool::from_wire(&[0]), Ok(false));
        assert_eq!(bool::from_wire(&[2]), Err(DecodeError::InvalidTag(2)));
    }

    #[test]
    fn bytes_and_strings() {
        let v = b"hello world".to_vec();
        assert_eq!(Vec::<u8>::from_wire(&v.to_wire()), Ok(v));
        let s = "κόσμε".to_string();
        assert_eq!(String::from_wire(&s.to_wire()), Ok(s));
        // Invalid UTF-8 rejected.
        let mut bad = Vec::new();
        encode_len(2, &mut bad);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_wire(&bad), Err(DecodeError::Invalid("utf-8")));
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_wire(&some.to_wire()), Ok(some));
        assert_eq!(Option::<u64>::from_wire(&none.to_wire()), Ok(none));
        assert_eq!(
            Option::<u64>::from_wire(&[7]),
            Err(DecodeError::InvalidTag(7))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = 5u32.to_wire();
        buf.push(0);
        assert_eq!(u32::from_wire(&buf), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn truncation_rejected() {
        let buf = u64::MAX.to_wire();
        assert_eq!(u64::from_wire(&buf[..7]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn length_bomb_rejected() {
        // Claim a 4 GiB vector with a 4-byte body.
        let mut buf = Vec::new();
        (u32::MAX).encode(&mut buf);
        buf.extend_from_slice(&[0; 4]);
        assert!(matches!(
            Vec::<u8>::from_wire(&buf),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn seq_helpers() {
        let items: Vec<u64> = vec![1, 2, 3];
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        let mut input = out.as_slice();
        assert_eq!(decode_seq::<u64>(&mut input).unwrap(), items);
        assert!(input.is_empty());
        // Sequence claiming more elements than bytes remain is rejected
        // before allocating.
        let mut bomb = Vec::new();
        encode_len(1_000_000, &mut bomb);
        let mut input = bomb.as_slice();
        assert!(decode_seq::<u64>(&mut input).is_err());
    }

    #[test]
    fn seq_prealloc_cap_round_trips() {
        // Regression for the element-size amplification bomb: a 4-byte
        // length prefix used to translate into an up-front
        // `len * size_of::<T>()` reservation (hundreds of MiB from a
        // 16 MiB frame). The pre-parse reservation is now capped at
        // SEQ_PREALLOC_LEN elements — taint-alloc in distrust-lint flags
        // any revert — and sequences far larger than the cap must still
        // decode byte-for-byte.
        let items: Vec<u64> = (0..4 * SEQ_PREALLOC_LEN as u64).collect();
        let mut out = Vec::new();
        encode_seq(&items, &mut out);
        let mut input = out.as_slice();
        assert_eq!(decode_seq::<u64>(&mut input).unwrap(), items);
        assert!(input.is_empty());
        // A hostile prefix claiming more elements than remaining input
        // bytes is still rejected before the decode loop runs.
        let mut bomb = Vec::new();
        encode_len(1_000_000, &mut bomb);
        bomb.extend_from_slice(&[0; 64]);
        assert!(matches!(
            decode_seq::<u64>(&mut bomb.as_slice()),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        seq: u64,
        name: String,
        payload: Vec<u8>,
        flag: bool,
    }
    wire_struct!(Sample {
        seq: u64,
        name: String,
        payload: Vec<u8>,
        flag: bool,
    });

    #[test]
    fn derived_struct_round_trip() {
        let s = Sample {
            seq: 77,
            name: "domain-0".into(),
            payload: vec![1, 2, 3],
            flag: true,
        };
        let wire = s.to_wire();
        assert_eq!(Sample::from_wire(&wire), Ok(s));
    }

    #[test]
    fn encoding_is_deterministic() {
        let s1 = Sample {
            seq: 1,
            name: "x".into(),
            payload: vec![9; 10],
            flag: false,
        };
        let s2 = Sample {
            seq: 1,
            name: "x".into(),
            payload: vec![9; 10],
            flag: false,
        };
        assert_eq!(s1.to_wire(), s2.to_wire());
    }

    #[test]
    fn fixed_arrays() {
        let digest = [7u8; 32];
        assert_eq!(<[u8; 32]>::from_wire(&digest.to_wire()), Ok(digest));
    }
}
