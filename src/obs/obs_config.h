/**
 * @file
 * Observability is always compiled in; kept only because the
 * benchmark's run metadata reports GCC3D_OBS_ENABLED as provenance.
 */

#ifndef GCC3D_OBS_OBS_CONFIG_H
#define GCC3D_OBS_OBS_CONFIG_H

#define GCC3D_OBS_ENABLED 1

#endif // GCC3D_OBS_OBS_CONFIG_H
