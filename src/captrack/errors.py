"""The configuration error, in a module of its own so that every layer can
raise it without loading the device model."""


class ConfigError(ValueError):
    """Raised when validation finds one or more invariant violations."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(errors))

    def __reduce__(self):  # rebuilt from the list, not from the joined message
        return type(self), (self.errors,)
