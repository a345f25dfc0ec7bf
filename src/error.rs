//! The unified error type of the `spnerf` facade.
//!
//! Every stage of the pipeline (VQRF compression, SpNeRF preprocessing,
//! rendering requests, example I/O) reports through one [`Error`], so
//! examples and downstream binaries can return `Result<(), spnerf::Error>`
//! instead of threading `Box<dyn Error>` through ad-hoc glue.

use std::fmt;

use spnerf_core::{BuildError, ConfigError};
use spnerf_render::renderer::RenderConfigError;
use spnerf_voxel::vqrf::VqrfConfigError;

/// Any failure producible by the `spnerf` pipeline layer or the examples
/// built on it.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The SpNeRF operating point ([`spnerf_core::SpNerfConfig`]) is
    /// invalid.
    Config(ConfigError),
    /// Building the SpNeRF model from the VQRF stage failed.
    Build(BuildError),
    /// The VQRF compression configuration is invalid.
    Vqrf(VqrfConfigError),
    /// The render configuration is invalid (a zero `samples_per_ray` or
    /// `tile_size`).
    Render(RenderConfigError),
    /// A scene name did not match any of the eight Synthetic-NeRF scenes.
    UnknownScene(String),
    /// The labelled scene's grid has no occupied voxel (no positive
    /// density), so VQRF has nothing to compress. Only a custom grid
    /// ([`crate::pipeline::PipelineBuilder::from_grid`]) can be empty.
    EmptyGrid(String),
    /// A [`crate::pipeline::RenderRequest`] was malformed (the message
    /// explains what; e.g. an empty camera batch or a reference image count
    /// that does not match the batch).
    Request(String),
    /// An I/O failure (e.g. writing a PPM image from an example).
    Io(std::io::Error),
    /// A numeric CLI argument failed to parse.
    ParseInt(std::num::ParseIntError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "invalid SpNeRF configuration: {e}"),
            Error::Build(e) => write!(f, "SpNeRF build failed: {e}"),
            Error::Vqrf(e) => write!(f, "invalid VQRF configuration: {e}"),
            Error::Render(e) => write!(f, "invalid render configuration: {e}"),
            Error::UnknownScene(name) => {
                write!(f, "unknown scene '{name}' (expected one of the Synthetic-NeRF eight)")
            }
            Error::EmptyGrid(label) => {
                write!(f, "scene '{label}' has no occupied voxel, so there is nothing to compress")
            }
            Error::Request(msg) => write!(f, "invalid render request: {msg}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::ParseInt(e) => write!(f, "invalid numeric argument: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Build(e) => Some(e),
            Error::Vqrf(e) => Some(e),
            Error::Render(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::ParseInt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        // Keep the most specific variant: a BuildError that merely wraps a
        // ConfigError unwraps to Error::Config.
        match e {
            BuildError::Config(c) => Error::Config(c),
            other => Error::Build(other),
        }
    }
}

impl From<VqrfConfigError> for Error {
    fn from(e: VqrfConfigError) -> Self {
        Error::Vqrf(e)
    }
}

impl From<RenderConfigError> for Error {
    fn from(e: RenderConfigError) -> Self {
        Error::Render(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<std::num::ParseIntError> for Error {
    fn from(e: std::num::ParseIntError) -> Self {
        Error::ParseInt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_pick_the_most_specific_variant() {
        let c = ConfigError::ZeroSubgrids;
        assert!(matches!(Error::from(c), Error::Config(_)));
        // BuildError::Config unwraps to the Config variant…
        assert!(matches!(Error::from(BuildError::Config(c)), Error::Config(_)));
        // …while real build failures stay Build.
        let b = BuildError::CodebookMismatch { model: 4, config: 8 };
        assert!(matches!(Error::from(b), Error::Build(_)));
        assert!(matches!(Error::from(VqrfConfigError::ZeroCodebook), Error::Vqrf(_)));
        assert!(matches!(Error::from(RenderConfigError::ZeroTileSize), Error::Render(_)));
    }

    #[test]
    fn display_and_source_are_wired() {
        use std::error::Error as _;
        let e = Error::from(ConfigError::ZeroTableSize);
        assert!(e.to_string().contains("configuration"));
        assert!(e.source().is_some());
        let r = Error::Request("empty camera batch".into());
        assert!(r.to_string().contains("empty camera batch"));
        assert!(r.source().is_none());
    }
}
