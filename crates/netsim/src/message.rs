//! Messages exchanged between sites.
//!
//! A message body is written once, by its encoder, and never copied after:
//! [`Body`] takes over the encoder's `String` or `Vec<u8>` behind an [`Arc`],
//! so cloning a body — into a reply cache, for a resend — shares its bytes.

use std::sync::Arc;
use std::time::Instant;

/// A message payload: line-oriented text (the default and debug format) or a
/// binary frame, each an immutable buffer shared by every clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// UTF-8 text (SQL, DOL commands, status codes, serialized tables).
    Text(Arc<String>),
    /// A length-prefixed binary frame (see `mdbs::codec`).
    Binary(Arc<Vec<u8>>),
}

impl Body {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        match self {
            Body::Text(s) => s.len(),
            Body::Binary(b) => b.len(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The text payload, if this is a text body.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Body::Text(s) => Some(s.as_str()),
            Body::Binary(_) => None,
        }
    }

    /// The binary payload, if this is a binary body.
    pub fn as_binary(&self) -> Option<&[u8]> {
        match self {
            Body::Text(_) => None,
            Body::Binary(b) => Some(b.as_slice()),
        }
    }

    /// The text payload; panics on a binary body. Convenience for tests and
    /// text-only call sites.
    pub fn as_str(&self) -> &str {
        self.as_text().expect("binary body has no text form")
    }
}

/// Takes the encoder's buffer over without copying it.
impl From<String> for Body {
    fn from(s: String) -> Self {
        Body::Text(Arc::new(s))
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Self {
        Body::from(s.to_string())
    }
}

/// Takes the encoder's buffer over without copying it.
impl From<Vec<u8>> for Body {
    fn from(b: Vec<u8>) -> Self {
        Body::Binary(Arc::new(b))
    }
}

impl PartialEq<str> for Body {
    fn eq(&self, other: &str) -> bool {
        self.as_text() == Some(other)
    }
}

impl PartialEq<&str> for Body {
    fn eq(&self, other: &&str) -> bool {
        self.as_text() == Some(*other)
    }
}

impl PartialEq<String> for Body {
    fn eq(&self, other: &String) -> bool {
        self.as_text() == Some(other.as_str())
    }
}

impl std::fmt::Display for Body {
    /// Text bodies render verbatim; binary bodies render as a size tag
    /// (frames are not printable).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Text(s) => f.write_str(s),
            Body::Binary(b) => write!(f, "<binary {} bytes>", b.len()),
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending site.
    pub from: String,
    /// Receiving site.
    pub to: String,
    /// Message body: text or a binary frame.
    pub body: Body,
    /// Monotonically increasing per-network sequence number.
    pub seq: u64,
}

/// Internal wire representation: a message plus its earliest delivery time.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub message: Message,
    pub deliver_at: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn envelope_carries_delivery_time() {
        let m = Message { from: "a".into(), to: "b".into(), body: "hi".into(), seq: 1 };
        let e =
            Envelope { message: m.clone(), deliver_at: Instant::now() + Duration::from_millis(5) };
        assert_eq!(e.message, m);
        assert!(e.deliver_at > Instant::now());
    }

    #[test]
    fn body_text_compat_surface() {
        let b = Body::from("hello");
        assert_eq!(b, "hello");
        assert_eq!(b, "hello".to_string());
        assert_eq!(b.as_str(), "hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_binary(), None);
        assert_eq!(format!("{b}"), "hello");
    }

    #[test]
    fn body_binary_surface() {
        let b = Body::from(vec![0xB1u8, 0x01]);
        assert_eq!(b.as_binary(), Some(&[0xB1u8, 0x01][..]));
        assert_eq!(b.as_text(), None);
        assert_eq!(b.len(), 2);
        assert_eq!(format!("{b}"), "<binary 2 bytes>");
        assert_ne!(b, Body::from("text"));
    }

    #[test]
    fn a_cloned_body_shares_its_bytes() {
        let text = Body::from("hello".to_string());
        assert_eq!(text.clone().as_str().as_ptr(), text.as_str().as_ptr());
        let frame = vec![0xB1u8, 0x01, 0x00];
        let at = frame.as_ptr();
        let binary = Body::from(frame);
        assert_eq!(binary.as_binary().unwrap().as_ptr(), at, "the encoder's buffer, not a copy");
        assert_eq!(binary.clone().as_binary().unwrap().as_ptr(), at);
    }
}
