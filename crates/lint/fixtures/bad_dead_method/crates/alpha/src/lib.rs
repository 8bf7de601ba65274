//! Seeded dead methods: a method is used only where it is called or named
//! as a path, however often its name occurs otherwise. Two fire.
#[derive(Default)]
pub struct Stack {
    items: Vec<u8>,
}

impl Stack {
    /// Called by `fill`: silent.
    pub fn push(&mut self, v: u8) {
        self.items.push(v);
    }

    /// Its name is only a local of `fill`'s: fires.
    pub fn len(&self) -> usize {
        self.items.iter().count()
    }

    /// Named as a path in a caller file: silent.
    pub fn top(&self) -> Option<u8> {
        self.items.last().copied()
    }

    /// Reached as `Self::drained` by `clear`: silent.
    pub fn drained(&mut self) -> usize {
        std::mem::take(&mut self.items).into_iter().count()
    }

    /// Only this file's tests call it: fires.
    pub fn clear(&mut self) {
        Self::drained(self);
    }
}

/// Called from a caller file: silent.
pub fn fill(stack: &mut Stack) -> u8 {
    let len = 3;
    for v in 0..len {
        stack.push(v);
    }
    len
}

#[cfg(test)]
mod tests {
    #[test]
    fn clears() {
        let mut stack = super::Stack { items: vec![1] };
        stack.clear();
    }
}
