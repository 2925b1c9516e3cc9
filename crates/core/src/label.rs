//! Interned record labels.
//!
//! S-Net labels name fields and tags. Every component instance compares
//! labels on every record it handles, so labels are interned once into a
//! global table and afterwards compared as plain `u32`s.
//!
//! Boxes written against the string API (`r.field("x")`) intern on every
//! call, so each thread keeps a small direct-mapped table in front: a hit
//! is an integer compare (and a string compare for names over seven
//! bytes), a miss or an evicted slot refills from the global table.

use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned label (field or tag name).
///
/// Construction goes through a global interner, so two labels with the
/// same spelling are always `==` and ordering is stable within a process
/// (interning order). Use [`Label::as_str`] to recover the spelling.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// A spelling the global table has already assigned `id` to.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    name: &'static str,
    id: u32,
}

/// Slots per thread (2 KB); colliding names take turns in one, a trip
/// to the global table per turn. Real topologies use a few dozen names.
const SLOTS: usize = 64;

/// Matches nothing, `""` included: no spelling packs to this key (255
/// or more bytes starting with seven `0xFF`, which is not UTF-8).
const EMPTY: Slot = Slot {
    key: u64::MAX,
    name: "",
    id: 0,
};

/// Spellings up to this long are told apart by their key alone.
const KEY_BYTES: usize = 7;

thread_local! {
    /// Never stale (the global table is append-only, an id is final) and
    /// bounded: a million distinct labels only ever overwrite slots.
    static LOCAL: [Cell<Slot>; SLOTS] = const { [const { Cell::new(EMPTY) }; SLOTS] };
}

/// Length (saturating at a byte) and first [`KEY_BYTES`] bytes in one
/// integer, injective up to `KEY_BYTES` bytes (longer names start at
/// `8 << 56`). A byte loop on purpose: a variable-length
/// `copy_from_slice` is a `memcpy` call costing more than the whole hit.
#[inline]
fn key_of(name: &str) -> u64 {
    let mut key = name.len().min(0xFF) as u64;
    for &b in name.as_bytes().iter().take(KEY_BYTES) {
        key = (key << 8) | u64::from(b);
    }
    key
}

/// Multiplicative hash: the top bits depend on every key byte.
#[inline]
fn slot_of(key: u64) -> usize {
    const { assert!(SLOTS.is_power_of_two()) };
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

impl Label {
    /// Interns `name` and returns its label.
    #[inline]
    pub fn new(name: &str) -> Label {
        let key = key_of(name);
        LOCAL.with(|table| {
            let slot = &table[slot_of(key)];
            let hit = slot.get();
            // The key alone decides a short name.
            if hit.key == key && (name.len() <= KEY_BYTES || hit.name == name) {
                return Label(hit.id);
            }
            let (id, name) = Label::intern_global(name);
            slot.set(Slot { key, name, id });
            Label(id)
        })
    }

    /// The global, cross-thread slow path: the id and its leaked spelling.
    fn intern_global(name: &str) -> (u32, &'static str) {
        let table = interner();
        // Fast path under the read lock only.
        if let Some((&name, &id)) = table.read().by_name.get_key_value(name) {
            return (id, name);
        }
        // The read lock was released above, so another thread may have
        // interned the same spelling in the meantime: the lookup MUST be
        // repeated under the write lock before inserting, or two ids
        // could be handed out for one spelling (and `==` on labels would
        // silently break).
        let mut w = table.write();
        if let Some((&name, &id)) = w.by_name.get_key_value(name) {
            return (id, name);
        }
        // Labels live for the whole process; leaking keeps lookups
        // allocation-free on the hot path.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = w.names.len() as u32;
        w.names.push(leaked);
        w.by_name.insert(leaked, id);
        (id, leaked)
    }

    /// The spelling this label was interned with.
    pub fn as_str(&self) -> &'static str {
        interner().read().names[self.0 as usize]
    }

    /// Raw interner index (stable within a process run).
    pub fn id(&self) -> u32 {
        self.0
    }
}

// Order labels by spelling so that printed types and BTree iteration are
// independent of interning order (which differs between test runs).
impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

/// Interns several labels at once: `labels!["a", "b"]`.
#[macro_export]
macro_rules! labels {
    ($($name:expr),* $(,)?) => {
        [$($crate::label::Label::new($name)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_label() {
        assert_eq!(Label::new("pic"), Label::new("pic"));
        assert_ne!(Label::new("pic"), Label::new("chunk"));
    }

    #[test]
    fn round_trips_spelling() {
        assert_eq!(Label::new("scene").as_str(), "scene");
        assert_eq!(Label::new("").as_str(), "");
        assert_eq!(Label::new("UTF-8 ünïcode").as_str(), "UTF-8 ünïcode");
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse lexicographic order on purpose.
        let z = Label::new("zzz-order");
        let a = Label::new("aaa-order");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Label::new("concurrent-label").id()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    /// Runs `f` on a thread of its own, so it starts from an empty
    /// per-thread table whatever the other tests interned.
    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn thread_local_cache_agrees_with_global_interner() {
        // Repeated interning (the per-record hot path) must keep
        // returning the id the global table assigned — including for
        // spellings longer than the key and for spellings first
        // interned by a *different* thread.
        let long = "a-label-spelling-well-past-eight-bytes";
        let first = Label::new(long);
        for _ in 0..1000 {
            assert_eq!(Label::new(long), first);
        }
        assert_eq!(on_fresh_thread(move || Label::new(long)), first);
        assert_eq!(first.as_str(), long);
    }

    #[test]
    fn an_empty_slot_matches_no_name_not_even_the_empty_one() {
        // Some non-empty spelling holds id 0 (this one, if nothing else
        // was interned yet); a fresh thread's empty table must not hand
        // that id out for `""`, whose key is all zeroes.
        let other = Label::new("not-the-empty-name");
        let empty = on_fresh_thread(|| Label::new(""));
        assert_eq!(empty.as_str(), "");
        assert_ne!(empty, other);
        assert_eq!(
            on_fresh_thread(|| (Label::new(""), Label::new(""))),
            (empty, empty)
        );
    }

    #[test]
    fn names_at_the_key_boundary_stay_distinct() {
        // Seven bytes are decided by the key alone; eight and up share
        // a key when their first seven bytes and length agree, and are
        // told apart by the stored spelling.
        let names = ["bound-7", "bound-7x", "bound-7y", "bound-", "bound-7xy"];
        assert_eq!(key_of(names[1]), key_of(names[2]));
        on_fresh_thread(move || {
            let first: Vec<Label> = names.iter().map(|n| Label::new(n)).collect();
            for round in 0..3 {
                for (n, l) in names.iter().zip(&first) {
                    assert_eq!(Label::new(n), *l, "round {round}: {n}");
                    assert_eq!(l.as_str(), *n);
                }
            }
            for (i, a) in first.iter().enumerate() {
                assert!(first[i + 1..].iter().all(|b| a != b), "{first:?}");
            }
        });
    }

    #[test]
    fn long_names_sharing_a_prefix_do_not_alias() {
        let (a, b) = ("shared-prefix-alpha", "shared-prefix-omega");
        assert_eq!(key_of(a), key_of(b));
        on_fresh_thread(move || {
            let (la, lb) = (Label::new(a), Label::new(b));
            assert_ne!(la, lb);
            for _ in 0..10 {
                assert_eq!((Label::new(a), Label::new(b)), (la, lb));
            }
            assert_eq!((la.as_str(), lb.as_str()), (a, b));
        });
    }

    #[test]
    fn eviction_is_invisible_to_callers() {
        // Far more distinct spellings than slots: every slot is
        // overwritten several times, and an evicted spelling still
        // resolves to the id the global table assigned.
        on_fresh_thread(|| {
            let names: Vec<String> = (0..4 * SLOTS).map(|i| format!("evict-{i}")).collect();
            let first: Vec<Label> = names.iter().map(|n| Label::new(n)).collect();
            for (n, l) in names.iter().zip(&first) {
                assert_eq!(Label::new(n), *l);
                assert_eq!(Label::new(n), *l, "re-hit after the refill");
                assert_eq!(l.as_str(), n);
            }
        });
    }

    #[test]
    fn names_taking_turns_in_one_slot_keep_their_ids() {
        // Two short names that map to the same slot evict each other on
        // every lookup.
        let names: Vec<String> = (0..=SLOTS).map(|i| format!("t{i}")).collect();
        let slot = |n: &String| slot_of(key_of(n));
        let (a, b) = names
            .iter()
            .enumerate()
            .find_map(|(i, a)| Some((a, names[..i].iter().find(|b| slot(b) == slot(a))?)))
            .expect("more names than slots: two share one");
        let (a, b) = (a.clone(), b.clone());
        on_fresh_thread(move || {
            let (la, lb) = (Label::new(&a), Label::new(&b));
            assert_ne!(la, lb);
            for _ in 0..50 {
                assert_eq!((Label::new(&a), Label::new(&b)), (la, lb));
            }
        });
    }

    #[test]
    fn racing_first_interns_agree_on_one_id() {
        // Many threads race to intern the same *fresh* spellings
        // simultaneously, each with spellings of its own in between —
        // the double-check under the write lock must guarantee one id
        // per spelling and one spelling per id. (A check-then-act race
        // here would make equal spellings compare unequal forever
        // after.)
        use std::sync::Barrier;
        const THREADS: usize = 16;
        const LABELS: usize = 32;
        let barrier = std::sync::Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..LABELS)
                        .map(|i| {
                            let shared = Label::new(&format!("race-label-{i}"));
                            (shared.id(), Label::new(&format!("race-own-{t}-{i}")).id())
                        })
                        .unzip::<u32, u32, Vec<u32>, Vec<u32>>()
                })
            })
            .collect();
        let per_thread: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (shared, _) in &per_thread {
            assert_eq!(
                shared, &per_thread[0].0,
                "every thread must see the same ids"
            );
        }
        // And every spelling round-trips through the id its thread got.
        for i in 0..LABELS {
            let shared = format!("race-label-{i}");
            assert_eq!(Label::new(&shared).id(), per_thread[0].0[i]);
            assert_eq!(Label::new(&shared).as_str(), shared);
            for (t, (_, own)) in per_thread.iter().enumerate() {
                let name = format!("race-own-{t}-{i}");
                assert_eq!(Label::new(&name).id(), own[i]);
                assert_eq!(Label::new(&name).as_str(), name);
            }
        }
    }
}
