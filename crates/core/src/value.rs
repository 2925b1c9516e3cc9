//! Opaque field values.
//!
//! In S-Net, field values are "entirely opaque to the coordination layer"
//! (§III). The coordination layer only ever moves them around, so the
//! natural Rust model is a cheaply clonable, type-erased handle. The one
//! thing the *distributed* runtime needs from a value is its approximate
//! wire size, which drives the simulated-network cost model; the
//! [`AnyData`] trait therefore carries a `approx_bytes` method.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Trait for opaque box-language payloads stored in record fields.
///
/// Implementors must report an approximate serialized size so the
/// cluster simulator can charge realistic transfer times.
pub trait AnyData: Send + Sync + fmt::Debug + 'static {
    /// Approximate serialized size in bytes (drives the network model).
    fn approx_bytes(&self) -> usize;
    /// Upcast for downcasting.
    fn as_any(&self) -> &dyn Any;
}

/// Wrapper that lifts any plain `Send + Sync + Debug` type into
/// [`AnyData`] using its in-memory size as the wire-size estimate.
#[derive(Debug)]
pub struct Plain<T>(pub T);

impl<T: Send + Sync + fmt::Debug + 'static> AnyData for Plain<T> {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }
    fn as_any(&self) -> &dyn Any {
        &self.0
    }
}

/// An opaque field value.
///
/// Scalars get dedicated representations (cheap, and convenient in tests
/// and examples); everything else travels as an `Arc<dyn AnyData>`.
/// Cloning is always O(1).
#[derive(Clone)]
pub enum Value {
    /// The unit value (a field with no payload).
    Unit,
    /// A 64-bit integer field (note: distinct from *tags*, which are part
    /// of the record structure itself).
    Int(i64),
    /// A 64-bit float field.
    Float(f64),
    /// An immutable string field.
    Str(Arc<str>),
    /// Raw bytes (e.g. an encoded image chunk).
    Bytes(Arc<[u8]>),
    /// An arbitrary shared payload from the box language.
    Data(Arc<dyn AnyData>),
}

impl Value {
    /// Wraps a plain Rust value as opaque data.
    pub fn plain<T: Send + Sync + fmt::Debug + 'static>(v: T) -> Value {
        Value::Data(Arc::new(Plain(v)))
    }

    /// Wraps a value that implements [`AnyData`] itself (custom wire size).
    pub fn data<T: AnyData>(v: T) -> Value {
        Value::Data(Arc::new(v))
    }

    /// Wraps an existing shared payload without another allocation.
    pub fn shared<T: AnyData>(v: Arc<T>) -> Value {
        Value::Data(v)
    }

    /// Attempts to view the payload as `T`. Works both for values created
    /// with [`Value::plain`] and for direct [`AnyData`] implementors.
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        match self {
            Value::Data(d) => d.as_any().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Byte payload, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes; drives the simulated network.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Value::Unit => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Data(d) => d.approx_bytes(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Data(d) => write!(f, "{d:?}"),
        }
    }
}

/// Structural equality for scalars; pointer equality for opaque data.
///
/// Opaque payloads are compared by identity because the coordination
/// layer has no way to inspect them — two records carrying the *same
/// shared payload* (the common case, e.g. one scene referenced by many
/// sections) compare equal.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Data(a), Value::Data(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<[u8]>> for Value {
    fn from(v: Arc<[u8]>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(Value::Unit.approx_bytes(), 0);
        assert_eq!(Value::Int(7).approx_bytes(), 8);
        assert_eq!(Value::from("abcd").approx_bytes(), 4);
        assert_eq!(Value::from(vec![0u8; 100]).approx_bytes(), 100);
    }

    #[test]
    fn plain_round_trip() {
        #[derive(Debug, PartialEq)]
        struct Section {
            y0: u32,
            y1: u32,
        }
        let v = Value::plain(Section { y0: 3, y1: 9 });
        let s: &Section = v.downcast_ref().expect("downcast");
        assert_eq!(s, &Section { y0: 3, y1: 9 });
        assert!(v.downcast_ref::<u32>().is_none());
    }

    #[test]
    fn custom_wire_size() {
        #[derive(Debug)]
        struct Chunk(Vec<u8>);
        impl AnyData for Chunk {
            fn approx_bytes(&self) -> usize {
                self.0.len()
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let v = Value::data(Chunk(vec![0; 1234]));
        assert_eq!(v.approx_bytes(), 1234);
        assert_eq!(v.downcast_ref::<Chunk>().unwrap().0.len(), 1234);
    }

    #[test]
    fn data_equality_is_identity() {
        let shared = Arc::new(Plain(42u32));
        let a = Value::Data(shared.clone());
        let b = Value::Data(shared);
        let c = Value::plain(42u32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scalar_equality_is_structural() {
        assert_eq!(Value::Int(7), Value::Int(7));
        assert_ne!(Value::Int(7), Value::Float(7.0));
        assert_eq!(Value::from("x"), Value::from("x"));
        let shared: Arc<[u8]> = Arc::from(&[1u8, 2, 3][..]);
        assert_eq!(Value::from(vec![1u8, 2, 3]), Value::from(shared));
        assert_eq!(
            Value::from(vec![1u8, 2, 3]).as_bytes(),
            Some(&[1u8, 2, 3][..])
        );
    }
}
