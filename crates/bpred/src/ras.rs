//! The return-address stack (32 entries, Table 1).

use ss_types::Pc;

/// Maximum supported RAS capacity.
const MAX_RAS: usize = 64;

/// Circular return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ras {
    stack: [Pc; MAX_RAS],
    /// Index of the current top entry (valid when `depth > 0`).
    top: usize,
    /// Live entries (≤ capacity; older entries are overwritten on
    /// overflow, as in hardware).
    depth: usize,
    capacity: usize,
}

impl Ras {
    /// Creates a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds the supported maximum.
    pub fn new(capacity: u32) -> Self {
        let capacity = capacity as usize;
        assert!(capacity > 0 && capacity <= MAX_RAS);
        Ras {
            stack: [Pc::new(0); MAX_RAS],
            top: 0,
            depth: 0,
            capacity,
        }
    }

    /// Pushes a return address (on predicting/fetching a call).
    pub fn push(&mut self, ret: Pc) {
        self.top = (self.top + 1) % self.capacity;
        self.stack[self.top] = ret;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Pops the predicted return address (on fetching a return). Returns
    /// `None` when empty (cold or underflowed).
    pub fn pop(&mut self) -> Option<Pc> {
        if self.depth == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.depth -= 1;
        Some(v)
    }

    /// Current top without popping.
    pub fn peek(&self) -> Option<Pc> {
        (self.depth > 0).then(|| self.stack[self.top])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut r = Ras::new(32);
        r.push(Pc::new(0x100));
        r.push(Pc::new(0x200));
        assert_eq!(r.pop(), Some(Pc::new(0x200)));
        assert_eq!(r.pop(), Some(Pc::new(0x100)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut r = Ras::new(4);
        for i in 0..6u64 {
            r.push(Pc::new(0x100 + i));
        }
        // last 4 survive: 0x105, 0x104, 0x103, 0x102
        assert_eq!(r.pop(), Some(Pc::new(0x105)));
        assert_eq!(r.pop(), Some(Pc::new(0x104)));
        assert_eq!(r.pop(), Some(Pc::new(0x103)));
        assert_eq!(r.pop(), Some(Pc::new(0x102)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut r = Ras::new(8);
        r.push(Pc::new(0x7));
        assert_eq!(r.peek(), Some(Pc::new(0x7)));
        assert_eq!(r.pop(), Some(Pc::new(0x7)));
        assert_eq!(r.peek(), None);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Ras::new(0);
    }
}

ss_types::impl_persist_state!(Ras { stack, top, depth });
