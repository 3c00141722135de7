//! Offline stand-in for [`serde`](https://crates.io/crates/serde). The build
//! environment has no network access, so the real crate cannot be vendored;
//! this shim keeps the workspace's `#[derive(serde::Serialize,
//! serde::Deserialize)]` annotations and the `koala-sim` JSON config
//! round-trip working.
//!
//! Instead of serde's visitor-based zero-copy model, everything funnels
//! through an owned [`Value`] tree (a JSON-shaped enum). `serde_json` (the
//! sibling stub) renders and parses that tree. Round-trips through this pair
//! are lossless for the types this workspace derives; compatibility with real
//! serde wire formats is explicitly a non-goal.
//!
//! Supported container attributes: `#[serde(transparent)]` (implied for
//! newtype structs). Supported field attributes: `#[serde(default)]`.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON-shaped owned data tree. Object keys keep insertion order so
/// serialized output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers (preserves full `u64` precision).
    UInt(u64),
    /// Negative integers.
    Int(i64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// For externally-tagged enum payloads: an object with exactly one key.
    pub fn as_singleton_object(&self) -> Option<(&str, &Value)> {
        match self {
            Value::Object(m) if m.len() == 1 => Some((&m[0].0, &m[0].1)),
            _ => None,
        }
    }
}

/// Look up a field by key in an object's entry list (helper for derived code).
pub fn get_field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| Error::custom(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

uint_impls!(u8, u16, u32, u64, usize);

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::UInt(n as u64) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match *v {
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| Error::custom(concat!(stringify!($t), " out of range")))?,
                    Value::Int(n) => n,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n).map_err(|_| Error::custom(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::Float(f) => Ok(f as $t),
                    Value::UInt(n) => Ok(n as $t),
                    Value::Int(n) => Ok(n as $t),
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

/// A box serializes as its contents, so boxing a field keeps its JSON
/// form.
impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::from_value(v).map(Vec::into_boxed_slice)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! tuple_impls {
    ($(($($n:ident : $i:tt),+))*) => {$(
        impl<$($n: Serialize),+> Serialize for ($($n,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($n: Deserialize),+> Deserialize for ($($n,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const ARITY: usize = 0 $(+ { let _ = $i; 1 })+;
                let a = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                if a.len() != ARITY {
                    return Err(Error::custom("tuple arity mismatch"));
                }
                Ok(($($n::from_value(&a[$i])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
