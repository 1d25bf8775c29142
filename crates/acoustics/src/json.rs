//! JSON dumps of the acoustics types inside a capture description
//! (`ht_datagen::CaptureSpec`): the experiment feature cache and the
//! benchmark's render cache both key on that dump.
//!
//! Unit enums serialize as their variant name, so the dump stays
//! human-readable and stable under variant reordering.

use crate::array::Device;
use crate::noise::NoiseKind;
use crate::room::Obstruction;
use ht_dsp::impl_unit_enum_json;

impl_unit_enum_json!(Device, {
    Device::D1 => "D1",
    Device::D2 => "D2",
    Device::D3 => "D3",
});

impl_unit_enum_json!(NoiseKind, {
    NoiseKind::White => "White",
    NoiseKind::Tv => "Tv",
    NoiseKind::RoomAmbient => "RoomAmbient",
});

impl_unit_enum_json!(Obstruction, {
    Obstruction::None => "None",
    Obstruction::Partial => "Partial",
    Obstruction::Full => "Full",
    Obstruction::Raised => "Raised",
});

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::json::{Json, ToJson};

    /// Each variant's dump parses back to the name it was written as, and
    /// no two variants share a name: a shared one would give two different
    /// capture specs one cache key.
    fn round_trip_distinct<T: ToJson>(values: &[T]) {
        let mut names: Vec<String> = Vec::new();
        for v in values {
            let back = Json::parse(&v.to_json().dump()).unwrap();
            assert_eq!(back, v.to_json());
            let name = back.as_str().unwrap().to_string();
            assert!(!names.contains(&name), "{name} is not unique");
            names.push(name);
        }
    }

    #[test]
    fn unit_enums_round_trip() {
        round_trip_distinct(&Device::ALL);
        round_trip_distinct(&[NoiseKind::White, NoiseKind::Tv, NoiseKind::RoomAmbient]);
        round_trip_distinct(&[
            Obstruction::None,
            Obstruction::Partial,
            Obstruction::Full,
            Obstruction::Raised,
        ]);
    }
}
