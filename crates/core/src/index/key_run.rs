//! [`KeyRun`]: keys back to back, addressed by position.

/// Keys back to back in one byte buffer with one `u32` end offset per key,
/// borrowed slice by slice without an allocation per key: `hope_hot`'s
/// record heap, and in `hope_store` a generation's source keys (its base
/// run and its write tail) and the padded bytes a bulk load reads.
#[derive(Debug, Default, PartialEq)]
pub struct KeyRun {
    bytes: Vec<u8>,
    /// `ends[i]`: where key `i` ends in `bytes` (key `i` starts where key
    /// `i - 1` ends). `u32`: a writer that may approach 4 GiB checks
    /// [`KeyRun::fits`] first.
    ends: Vec<u32>,
}

impl KeyRun {
    /// Room for `keys` keys of `bytes` bytes in all.
    pub fn with_capacity(keys: usize, bytes: usize) -> KeyRun {
        KeyRun { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(keys) }
    }

    /// Whether `extra` more bytes keep every end offset in `u32` range.
    pub fn fits(&self, extra: usize) -> bool {
        self.bytes.len().checked_add(extra).is_some_and(|end| u32::try_from(end).is_ok())
    }

    /// Room for `extra` more key bytes, as a writer that appends key by
    /// key should take it: the byte buffer grows to what it needs rounded
    /// up to the next of eight sizes per octave (…, 64, 72, 80, …, 120,
    /// 128, 144, …). Its capacity is then that rounding of the run's total
    /// bytes, whatever the order and the lengths of the keys, and at most
    /// 1/8 over it. `Vec`'s own growth from empty starts at the first
    /// key's length and doubles from there, so the capacity it ends with
    /// swings by up to 2× with that one length.
    pub fn reserve_bytes(&mut self, extra: usize) {
        let need = self.bytes.len() + extra;
        if need > self.bytes.capacity() {
            self.bytes.reserve_exact(eighth_octave_ceil(need) - self.bytes.len());
        }
    }

    /// Append `key`; it is key `len() - 1` from here on.
    ///
    /// # Panics
    ///
    /// If the run would pass 4 GiB (see [`KeyRun::fits`]).
    pub fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(u32::try_from(self.bytes.len()).expect("a key run is under 4 GiB"));
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the run holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of the run's keys.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Where key `i` starts in the run's bytes: the bytes of keys `..i`.
    pub fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |before| self.ends[before] as usize)
    }

    /// Key `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// The keys, in run order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        let mut from = 0;
        self.ends.iter().map(move |&to| {
            let key = &self.bytes[from..to as usize];
            from = to as usize;
            key
        })
    }

    /// Drop the growth slack of both buffers.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Whether both buffers are at exact size.
    pub fn is_exact(&self) -> bool {
        self.bytes.capacity() == self.bytes.len() && self.ends.capacity() == self.ends.len()
    }

    /// Heap bytes as allocated.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// `n` rounded up to a multiple of 1/8 of the largest power of two not
/// above it: the next size with at most four significant bits. The growth
/// step of [`KeyRun::reserve_bytes`], and of `hope_art`'s arenas of nodes
/// above Node4.
pub fn eighth_octave_ceil(n: usize) -> usize {
    if n <= 16 {
        return n;
    }
    let unit = 1 << (n.ilog2() - 3);
    n.div_ceil(unit) * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appended_bytes_round_up_to_eighths_of_an_octave() {
        let rounded: Vec<usize> =
            [0, 16, 17, 18, 64, 65, 72, 73, 127, 129].map(eighth_octave_ceil).to_vec();
        assert_eq!(rounded, [0, 16, 18, 18, 64, 72, 72, 80, 128, 144]);
        let mut run = KeyRun::default();
        for len in [1019, 19, 19, 19] {
            run.reserve_bytes(len);
            run.push(&vec![7; len]);
        }
        assert_eq!(run.bytes.capacity(), 1152);
    }
}
