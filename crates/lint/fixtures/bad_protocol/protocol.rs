//! Seeded violations for the protocol pass: `Request::B` and `Request::C`
//! have no fuzz coverage, and `Sideband` implements Encode with no Decode
//! impl in this file.

pub enum Request {
    A,
    B(u64),
    C { from: u64 },
}

wire_enum!(Request {
    0 => A,
    1 => B(value),
    2 => C { from },
} retired []);

pub struct Sideband;

impl Encode for Sideband {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(9);
    }
}
