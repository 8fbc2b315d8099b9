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
