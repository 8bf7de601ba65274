//! Seeded dead surface: two public items with no caller fire, one is kept
//! by a marker, and the rest stay silent.

/// Nothing calls it: fires.
pub fn orphan() -> u8 {
    7
}

/// Only this file's tests read it: fires.
pub const ONLY_TESTED: u32 = 3;

/// Only `tests/` calls it, and a caller file counts: silent.
pub fn used_by_tests() -> Counter {
    Counter { n: 0 }
}

// lint:allow(dead-surface): seeded keep — an item the marker keeps on purpose
pub fn kept() {}

/// Not public surface: silent (the compiler's own dead-code lint covers it).
pub(crate) fn internal() {}

pub struct Counter {
    n: u32,
}

/// A method of a trait impl carries no `pub`, and nothing names `next`
/// here: silent.
impl Iterator for Counter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.n += 1;
        Some(self.n)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_constant() {
        assert_eq!(super::ONLY_TESTED, 3);
    }
}
